// Tests of the space-bounded and work-stealing scheduler simulators:
// completion, work conservation, Theorem 1 miss bounds, monotone speedup,
// and the ND-vs-NP load-balance gap the schedulers are supposed to expose.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>

#include "algos/lcs.hpp"
#include "algos/matmul.hpp"
#include "algos/trs.hpp"
#include "analysis/pcc.hpp"
#include "exp/workload.hpp"
#include "nd/drs.hpp"
#include "obs/recorder.hpp"
#include "pmh/presets.hpp"
#include "sched/registry.hpp"

namespace ndf {
namespace {

TEST(SbScheduler, SerialMachineMatchesTotalDuration) {
  SpawnTree t = make_mm_tree(16, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(1, 3.0 * 8 * 8 * 3, 10));
  SchedOptions opts;
  const SchedStats s = run_scheduler("sb", g, m, opts);
  // One processor: makespan = work + all distributed miss latency.
  EXPECT_NEAR(s.makespan, s.total_work + s.miss_cost, 1e-6);
  EXPECT_DOUBLE_EQ(s.total_work, g.work());
  EXPECT_NEAR(s.utilization, 1.0, 1e-9);
}

TEST(SbScheduler, MissesMatchTheorem1Bound) {
  SpawnTree t = make_trs_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 512, 10));
  SchedOptions opts;
  const SchedStats s = run_scheduler("sb", g, m, opts);
  // Theorem 1: misses at level j <= Q*(t; σMj). Our accounting charges
  // exactly the anchored footprints, so this holds with the glue slack.
  const double q = parallel_cache_complexity(t, opts.sigma * 512);
  EXPECT_LE(s.misses[0], q);
  EXPECT_GT(s.misses[0], 0.0);
}

TEST(SbScheduler, SpeedupIsMonotoneAndBounded) {
  SpawnTree t = make_lcs_tree(128, 4);
  StrandGraph g = elaborate(t);
  double prev = 0.0;
  double t1 = 0.0;
  for (std::size_t p : {1u, 2u, 4u, 8u}) {
    Pmh m(PmhConfig::flat(p, 256, 5));
    const SchedStats s = run_scheduler("sb", g, m);
    if (p == 1) t1 = s.makespan;
    const double speedup = t1 / s.makespan;
    EXPECT_GE(speedup, prev * 0.999);  // monotone (allowing fp noise)
    EXPECT_LE(speedup, double(p) + 1e-9);
    prev = speedup;
  }
  EXPECT_GT(prev, 2.0);  // 8 processors must beat 2x on a 128 LCS
}

TEST(SbScheduler, NdBeatsNpOnTrs) {
  // The extra readiness from partial dependencies must shorten the
  // simulated makespan (this is the paper's central scheduling claim).
  SpawnTree t = make_trs_tree(64, 4);
  StrandGraph nd = elaborate(t);
  StrandGraph np = elaborate(t, {.np_mode = true});
  Pmh m(PmhConfig::flat(16, 1024, 10));
  const double ms_nd = run_scheduler("sb", nd, m).makespan;
  const double ms_np = run_scheduler("sb", np, m).makespan;
  EXPECT_LT(ms_nd, ms_np);
}

TEST(SbScheduler, RespectsBalancedLowerBound) {
  SpawnTree t = make_mm_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(8, 3 * 16 * 16, 10));
  const SchedStats s = run_scheduler("sb", g, m);
  // Makespan can't beat perfect balance of work alone.
  EXPECT_GE(s.makespan * 8.0, s.total_work - 1e-6);
}

TEST(SbScheduler, TwoTierMachineCompletes) {
  SpawnTree t = make_trs_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::two_tier(2, 4, 256, 4096, 2, 20));
  const SchedStats s = run_scheduler("sb", g, m);
  EXPECT_GT(s.makespan, 0.0);
  ASSERT_EQ(s.misses.size(), 2u);
  EXPECT_GT(s.misses[1], 0.0);
  const double q2 = parallel_cache_complexity(t, 4096.0 / 3.0);
  EXPECT_LE(s.misses[1], q2);
}

TEST(SbScheduler, ChargeMissesOffGivesPureWorkMakespanOnOneProc) {
  SpawnTree t = make_mm_tree(8, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(1, 256, 100));
  SchedOptions opts;
  opts.charge_misses = false;
  const SchedStats s = run_scheduler("sb", g, m, opts);
  EXPECT_NEAR(s.makespan, g.work(), 1e-9);
}

TEST(WsScheduler, CompletesAndConservesWork) {
  SpawnTree t = make_lcs_tree(64, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 256, 5));
  const SchedStats s = run_scheduler("ws", g, m);
  EXPECT_DOUBLE_EQ(s.total_work, g.work());
  EXPECT_GT(s.makespan, 0.0);
  EXPECT_GT(s.atomic_units, 0u);
}

TEST(WsScheduler, SbHasNoMoreMissesThanWs) {
  // The anchoring property preserves locality; random stealing scatters
  // tasks and reloads footprints (the [47,48] observation).
  SpawnTree t = make_mm_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(8, 3 * 16 * 16, 10));
  const SchedStats sb = run_scheduler("sb", g, m);
  const SchedStats ws = run_scheduler("ws", g, m);
  EXPECT_LE(sb.misses[0], ws.misses[0] * 1.001);
}

TEST(WsScheduler, DeterministicForFixedSeed) {
  SpawnTree t = make_trs_tree(32, 4);
  StrandGraph g = elaborate(t);
  Pmh m(PmhConfig::flat(4, 512, 5));
  SchedOptions o;
  o.seed = 7;
  const SchedStats a = run_scheduler("ws", g, m, o);
  const SchedStats b = run_scheduler("ws", g, m, o);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.steals, b.steals);
}

/// FNV-1a over every trace event's start time, processor and unit root:
/// two runs with equal fingerprints placed the same units on the same
/// processors at the same times.
std::uint64_t trace_fingerprint(const Trace& t) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  for (const TraceEvent& e : t) {
    std::uint64_t start_bits = 0;
    std::memcpy(&start_bits, &e.start, sizeof start_bits);
    mix(start_bits);
    mix(e.proc);
    mix(e.unit_root);
  }
  return h;
}

TEST(WsScheduler, VictimStreamPinnedOnSixteenProcessors) {
  // Full ws stats and schedule fingerprints on flat16, where most
  // processors sit idle with nothing to steal (chain: one ready unit at a
  // time; forkjoin: barrier tails). The victim RNG stream decides who
  // steals what, so any change to how many draws an idle pick consumes
  // shows up here — wavefront is the seed-sensitive case. Values recorded
  // from the engine before idle picks could be skipped; never re-baseline.
  struct Golden {
    const char* workload;
    std::uint64_t seed;
    double makespan;
    std::size_t steals;
    double misses;
    std::uint64_t fingerprint;
  };
  const Golden golden[] = {
      {"gen:family=chain,n=4096", 1, 2883584, 4095, 262144,
       0x04c70d6c2ed2c383ULL},
      {"gen:family=chain,n=4096", 2, 2883584, 4095, 262144,
       0x04c70d6c2ed2c383ULL},
      {"gen:family=chain,n=4096", 3, 2883584, 4095, 262144,
       0x04c70d6c2ed2c383ULL},
      {"gen:family=forkjoin,depth=64,fan=48", 1, 135168, 2880, 196608,
       0x8bdf324075845c43ULL},
      {"gen:family=forkjoin,depth=64,fan=48", 2, 135168, 2880, 196608,
       0x8bdf324075845c43ULL},
      {"gen:family=forkjoin,depth=64,fan=48", 3, 135168, 2880, 196608,
       0x8bdf324075845c43ULL},
      {"gen:family=wavefront,n=32", 1, 56320, 524, 65536,
       0xddf9719cd29f3b39ULL},
      {"gen:family=wavefront,n=32", 2, 56320, 548, 65536,
       0x8affbbdc7156fc1bULL},
      {"gen:family=wavefront,n=32", 3, 56320, 537, 65536,
       0x41967c97ba44f05bULL},
  };
  const Pmh m = make_pmh("flat16");
  for (const Golden& want : golden) {
    const exp::Workload w(exp::parse_workload(want.workload));
    obs::EventRecorder rec;
    SchedOptions o;
    o.seed = want.seed;
    o.sink = &rec;
    const SchedStats s = run_scheduler("ws", w.graph(), m, o);
    SCOPED_TRACE(std::string(want.workload) + " seed " +
                 std::to_string(want.seed));
    EXPECT_EQ(s.makespan, want.makespan);
    EXPECT_EQ(s.steals, want.steals);
    ASSERT_EQ(s.misses.size(), 1u);
    EXPECT_EQ(s.misses[0], want.misses);
    EXPECT_EQ(s.miss_cost, want.misses * m.miss_cost(1));
    EXPECT_EQ(trace_fingerprint(rec.unit_trace()), want.fingerprint);
  }
}

TEST(SbScheduler, SchedulePinnedOnFlatAndDeepMachines) {
  // Full sb stats and schedule fingerprints for four generated families on
  // one flat and two two-level machines, with measured occupancy on. The
  // anchoring order (capacity-blocked retries, subcluster leases, run-queue
  // placement) decides which unit runs where and when, so any change to
  // how sb chooses an anchor or orders its retries shows up here. Values
  // recorded from the engine before known-null picks were skipped and
  // before the blocked-retry fast paths; never re-baseline.
  struct Golden {
    const char* workload;
    const char* machine;
    double makespan;
    std::size_t units;
    std::size_t anchors;
    std::vector<double> misses;
    std::vector<double> measured;
    double comm_cost;
    double utilization;
    std::uint64_t fingerprint;
  };
  const Golden golden[] = {
      {"gen:family=wavefront,n=32", "flat16", 168960, 1024, 1024, {65536},
       {65536}, 655360, 0.26666666666666666, 0x2e6d349f9ffd2577ULL},
      {"gen:family=wavefront,n=32", "deep2x4", 295936, 1024, 2048,
       {65536, 65536}, {65536, 65536}, 2162688, 0.94117647058823528,
       0xf4f32ebe7c912242ULL},
      {"gen:family=wavefront,n=32", "deep4x4", 174080, 1024, 2048,
       {65536, 65536}, {65536, 65536}, 2162688, 0.80000000000000004,
       0xad2568cf953110f9ULL},
      {"gen:family=forkjoin,depth=64,fan=48", "flat16", 180224, 3072, 3072,
       {196608}, {196608}, 1966080, 0.75, 0x8a58e73eda669025ULL},
      {"gen:family=forkjoin,depth=64,fan=48", "deep2x4", 835584, 3072, 6144,
       {196608, 196608}, {196608, 196608}, 6488064, 1,
       0x3fbef884a3dde253ULL},
      {"gen:family=forkjoin,depth=64,fan=48", "deep4x4", 417792, 3072, 6144,
       {196608, 196608}, {196608, 196608}, 6488064, 1,
       0x6b9b63bca637159fULL},
      {"gen:family=diamond,depth=32,fan=24", "flat16", 135168, 832, 832,
       {53248}, {53248}, 532480, 0.27083333333333331, 0xf1ee9d4dc743ca83ULL},
      {"gen:family=diamond,depth=32,fan=24", "deep2x4", 348160, 832, 1664,
       {53248, 53248}, {53248, 53248}, 1757184, 0.65000000000000002,
       0xc66dc2ed4c2fb93fULL},
      {"gen:family=diamond,depth=32,fan=24", "deep4x4", 278528, 832, 1664,
       {53248, 53248}, {53248, 53248}, 1757184, 0.40625,
       0xbfc2ddc537603778ULL},
      {"gen:family=sp,depth=8,fan=4,cross=60,seed=11", "flat16", 242308, 999,
       999, {128120}, {128120}, 1281200, 0.36351461775921556,
       0x3a8f8d2c02a0cbc1ULL},
      {"gen:family=sp,depth=8,fan=4,cross=60,seed=11", "deep2x4",
       1114407.0912661885, 1941, 2209, {128120, 128120}, {128120, 128120},
       4227960, 0.48860959721759079, 0x0cf73584062b9fc4ULL},
      {"gen:family=sp,depth=8,fan=4,cross=60,seed=11", "deep4x4",
       705258.24271561741, 1941, 2209, {128120, 128120}, {128120, 128120},
       4227960, 0.38603589934897325, 0x85c8239efaadab1eULL},
  };
  for (const Golden& want : golden) {
    SCOPED_TRACE(std::string(want.workload) + " on " + want.machine);
    const exp::Workload w(exp::parse_workload(want.workload));
    const Pmh m = make_pmh(want.machine);
    obs::EventRecorder rec;
    SchedOptions o;
    o.measure_misses = true;
    o.sink = &rec;
    const SchedStats s = run_scheduler("sb", w.graph(), m, o);
    EXPECT_EQ(s.makespan, want.makespan);
    EXPECT_EQ(s.total_work, w.graph().work());
    EXPECT_EQ(s.atomic_units, want.units);
    EXPECT_EQ(s.anchors, want.anchors);
    EXPECT_EQ(s.steals, 0u);
    EXPECT_EQ(s.misses, want.misses);
    double miss_cost = 0.0;
    for (std::size_t l = 1; l <= want.misses.size(); ++l)
      miss_cost += want.misses[l - 1] * m.miss_cost(l);
    EXPECT_EQ(s.miss_cost, miss_cost);
    EXPECT_EQ(s.measured_misses, want.measured);
    EXPECT_EQ(s.comm_cost, want.comm_cost);
    EXPECT_EQ(s.utilization, want.utilization);
    EXPECT_TRUE(s.measured_writebacks.empty());
    EXPECT_EQ(s.contention_cost, 0.0);
    EXPECT_EQ(trace_fingerprint(rec.unit_trace()), want.fingerprint);
  }
}

TEST(FirePrograms, MatchTheDependenceTemplates) {
  // Every +1 in the external-dependence template has exactly one matching
  // decrement, the in-degree ops into each control vertex add up to its
  // in-degree, and the unit programs cover every non-control vertex once.
  for (const char* spec :
       {"mm:n=32", "lcs:n=128", "trs:n=32,np",
        "gen:family=sp,depth=6,fan=3,seed=7", "gen:family=wavefront,n=12",
        "gen:family=chain,n=64"}) {
    const exp::Workload w(exp::parse_workload(spec));
    const StrandGraph& g = w.graph();
    for (const char* machine : {"flat:p=8,m1=192,c1=10", "deep2x4"}) {
      SCOPED_TRACE(std::string(spec) + " on " + machine);
      const CondensedDag dag(g, level_cache_sizes(make_pmh(machine)),
                             1.0 / 3.0);
      std::vector<int> ext_decrements(dag.ext_arena_size(), 0);
      std::vector<std::uint32_t> deg_decrements(dag.num_controls(), 0);
      auto tally = [&](std::span<const CondensedDag::FireOp> program) {
        for (const CondensedDag::FireOp& op : program) {
          if (op.level == 0) {
            ASSERT_LT(op.target, dag.num_controls());
            ++deg_decrements[op.target];
          } else {
            ASSERT_LE(op.level, dag.num_levels());
            ASSERT_GE(op.target, dag.ext_off(op.level));
            ++ext_decrements[op.target];
          }
        }
      };
      for (std::size_t u = 0; u < dag.num_units(); ++u)
        tally(dag.unit_program(int(u)));
      for (std::size_t c = 0; c < dag.num_controls(); ++c)
        tally(dag.control_program(c));
      EXPECT_EQ(ext_decrements, dag.initial_ext_flat());
      for (std::size_t c = 0; c < dag.num_controls(); ++c) {
        EXPECT_EQ(deg_decrements[c], dag.initial_control_in_degree()[c]);
        EXPECT_EQ(deg_decrements[c],
                  g.in_degree(dag.control_vertex(c)));
      }

      // Control vertices are exactly the glue nodes' vertices, ascending;
      // the unit fire orders partition all the others.
      std::vector<int> seen(g.num_vertices(), 0);
      for (std::size_t c = 0; c < dag.num_controls(); ++c) {
        const VertexId v = dag.control_vertex(c);
        EXPECT_LT(dag.decomposition(1).owner[g.owner(v)], 0);
        if (c > 0) {
          EXPECT_LT(dag.control_vertex(c - 1), v);
        }
        seen[v] = -1;
      }
      std::vector<VertexId> order;
      for (std::size_t u = 0; u < dag.num_units(); ++u) {
        order.clear();
        dag.unit_fire_order(int(u), order);
        ASSERT_FALSE(order.empty());
        // The unit root's exit fires last, after all of its descendants.
        EXPECT_EQ(order.back(), g.exit(dag.unit_root(int(u))));
        for (VertexId v : order) {
          EXPECT_EQ(dag.decomposition(1).owner[g.owner(v)], int(u));
          ++seen[v];
        }
      }
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        if (seen[v] >= 0) {
          EXPECT_EQ(seen[v], 1) << "vertex " << v;
        }
      }
    }
  }
}

TEST(CondensedDagNesting, ParentsAndChildrenMatchTheDecompositions) {
  // The flat nesting accessors agree with the node-level decompositions:
  // a task's parent is the next level's owner of its root, its children
  // are exactly the tasks one level down whose parent it is, and its
  // units are the ones unit_task maps to it.
  for (const char* spec :
       {"mm:n=32", "lcs:n=128", "trs:n=32,np",
        "gen:family=sp,depth=7,fan=3,cross=60,seed=5",
        "gen:family=wavefront,n=12", "gen:family=diamond,depth=8,fan=6"}) {
    const exp::Workload w(exp::parse_workload(spec));
    for (const char* machine : {"flat16", "deep2x4", "deep4x4"}) {
      SCOPED_TRACE(std::string(spec) + " on " + machine);
      const CondensedDag dag(w.graph(), level_cache_sizes(make_pmh(machine)),
                             1.0 / 3.0);
      const std::size_t L = dag.num_levels();
      for (std::size_t l = 1; l <= L; ++l) {
        const Decomposition& d = dag.decomposition(l);
        std::vector<std::size_t> units(d.maximal.size(), 0);
        for (std::size_t u = 0; u < dag.num_units(); ++u)
          ++units[std::size_t(dag.unit_task(l, int(u)))];
        int next_child = 0;
        for (std::size_t t = 0; t < d.maximal.size(); ++t) {
          const int ti = int(t);
          EXPECT_EQ(dag.task_units(l, ti), units[t]);
          const std::size_t first = dag.task_first_unit(l, ti);
          EXPECT_EQ(dag.unit_task(l, int(first)), ti);
          if (first > 0) {
            EXPECT_EQ(dag.unit_task(l, int(first) - 1), ti - 1);
          }
          if (l < L) {
            EXPECT_EQ(dag.task_parent(l, ti),
                      dag.decomposition(l + 1).owner[d.maximal[t]]);
          } else {
            EXPECT_EQ(dag.task_parent(l, ti), -1);
          }
          if (l == 1) continue;
          const auto [lo, hi] = dag.task_children(l, ti);
          EXPECT_EQ(lo, next_child);
          EXPECT_LT(lo, hi);
          for (int c = lo; c < hi; ++c) {
            EXPECT_EQ(dag.task_parent(l - 1, c), ti);
          }
          next_child = hi;
        }
        if (l > 1) {
          EXPECT_EQ(std::size_t(next_child),
                    dag.decomposition(l - 1).maximal.size());
        }
      }
    }
  }
}

/// Forwards every hook to a registry policy but keeps the default
/// next_pick and skip_picks, so the core makes every idle pick the way it
/// did before picks could be skipped.
class EveryPick final : public Scheduler {
 public:
  explicit EveryPick(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}
  const char* name() const override { return inner_->name(); }
  void init(SimCore& core) override { inner_->init(core); }
  void on_start() override { inner_->on_start(); }
  Assignment pick(std::size_t proc, double now) override {
    return inner_->pick(proc, now);
  }
  void on_task_ready(std::size_t level, int task) override {
    inner_->on_task_ready(level, task);
  }
  void on_exit_fired(NodeId n) override { inner_->on_exit_fired(n); }
  void on_unit_complete(std::size_t proc, int unit) override {
    inner_->on_unit_complete(proc, unit);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
};

TEST(SkipPicks, SkippingPolicyMatchesOneThatPicksEveryTime) {
  // The skip contract: a policy that passes over processors in next_pick
  // or answers skip_picks must end up with the schedule it would have
  // produced from the null picks themselves — for ws that means the
  // replayed victim draws keep the RNG stream; for sb and serial it means
  // next_pick passes over exactly the processors whose pick is null.
  for (const char* spec :
       {"gen:family=chain,n=256", "gen:family=forkjoin,depth=8,fan=24",
        "gen:family=wavefront,n=24", "gen:family=sp,depth=7,fan=3,seed=5",
        "lcs:n=128"}) {
    const exp::Workload w(exp::parse_workload(spec));
    for (const char* machine : {"flat16", "deep2x4", "flat:p=3,m1=192,c1=10"}) {
      const Pmh m = make_pmh(machine);
      for (const char* policy : {"sb", "ws", "greedy", "serial", "edf"}) {
        for (std::uint64_t seed : {1u, 2u}) {
          SCOPED_TRACE(std::string(spec) + " on " + machine + ", " + policy +
                       " seed " + std::to_string(seed));
          SchedOptions o;
          o.seed = seed;
          o.measure_misses = true;
          const CondensedDag dag(w.graph(), level_cache_sizes(m), o.sigma);
          obs::EventRecorder skipped_rec, full_rec;
          o.sink = &skipped_rec;
          SimCore skipping(dag, m, o);
          const auto skip_policy = make_scheduler(policy, o);
          const SchedStats a = skipping.run(*skip_policy);
          o.sink = &full_rec;
          SimCore full(dag, m, o);
          EveryPick every(make_scheduler(policy, o));
          const SchedStats b = full.run(every);

          EXPECT_EQ(a.makespan, b.makespan);
          EXPECT_EQ(a.steals, b.steals);
          EXPECT_EQ(a.anchors, b.anchors);
          EXPECT_EQ(a.misses, b.misses);
          EXPECT_EQ(a.measured_misses, b.measured_misses);
          EXPECT_EQ(a.utilization, b.utilization);
          EXPECT_EQ(trace_fingerprint(skipped_rec.unit_trace()),
                    trace_fingerprint(full_rec.unit_trace()));

          // Same work, but only the full run picks for processors that
          // cannot get anything: every pick of the skipping run places a
          // unit.
          const EngineCounters& ca = skipping.counters();
          const EngineCounters& cb = full.counters();
          EXPECT_EQ(cb.skipped_picks, 0u);
          EXPECT_EQ(ca.picks + ca.skipped_picks, cb.picks);
          EXPECT_EQ(ca.null_picks, 0u);
          EXPECT_EQ(ca.picks, skipping.num_units());
          EXPECT_EQ(cb.picks - cb.null_picks, full.num_units());
          EXPECT_EQ(ca.heap_pushes, skipping.num_units());
          EXPECT_EQ(ca.fire_ops, cb.fire_ops);
          EXPECT_EQ(ca.cascade_fires, cb.cascade_fires);
          EXPECT_EQ(ca.cascade_fires, skipping.dag().num_controls());
        }
      }
    }
  }
}

}  // namespace
}  // namespace ndf
