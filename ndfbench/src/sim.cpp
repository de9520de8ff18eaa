// sim-stress and sim-kernels: the sweep engine (exp::Sweep) end to end, and
// per layer through the benchmark's own serial walk of the same grid.
//
// End to end both sweeps run at jobs = 1. On a shared 4-vCPU host the
// throughput of a 4-worker sweep drifted by up to 30 % between runs, more
// than a bound allows; one worker drifted by about half that. The thread
// pool is measured in sim-kernels' traced run instead (pool.*).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "analysis/pcc.hpp"
#include "common.hpp"
#include "counting_policy.hpp"
#include "exp/report.hpp"
#include "exp/sweep.hpp"
#include "host_speed.hpp"
#include "inputs.hpp"
#include "pmh/presets.hpp"
#include "sched/condensed_dag.hpp"
#include "sched/registry.hpp"
#include "workloads.hpp"

namespace ndfbench {

namespace {

using ndf::CondensedDag;
using ndf::Pmh;
using ndf::SchedStats;
using ndf::SimCore;

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// What the emitters print for `runs`: the results table and the JSON.
std::string emit(const std::string& name,
                 const std::vector<exp::RunPoint>& runs) {
  std::ostringstream os;
  exp::results_table(name, runs).print(os);
  exp::write_sweep_json(os, name, runs);
  return os.str();
}

struct SweepRun {
  double wall = 0.0;  ///< wall time of Sweep::run(), set-up included
  exp::PhaseTimes phases;
  std::vector<ndf::ThreadPool::WorkerStats> workers;
  std::vector<exp::RunPoint> runs;
};

SweepRun run_sweep(const exp::Scenario& s, std::size_t jobs) {
  exp::Sweep sweep(s, jobs);
  const double t0 = now_s();
  sweep.run();
  SweepRun out;
  out.wall = now_s() - t0;
  out.phases = sweep.phase_times();
  out.workers = sweep.worker_stats();
  out.runs = sweep.results();
  return out;
}

/// What each cell is checked against: the unit count of an independently
/// built condensation and Q*(t; σM_l) per cache level (analysis/pcc).
/// Holds one workload at a time and keeps only the numbers.
class Reference {
 public:
  struct Entry {
    std::size_t units = 0;
    std::vector<double> qstar;  ///< index l-1
  };

  explicit Reference(const exp::Scenario& s) {
    for (const std::string& spec : s.machines)
      machines_.emplace(spec, ndf::make_pmh(spec));
  }

  const Pmh& machine(const std::string& spec) const {
    return machines_.at(spec);
  }

  const Entry& get(const exp::RunPoint& r) {
    const std::vector<double> sizes = ndf::level_cache_sizes(machine(r.machine));
    const Key key{r.workload.label(), r.sigma, sizes};
    const auto it = entries_.find(key);
    if (it != entries_.end()) return it->second;
    if (!workload_ || workload_->spec().label() != key.label)
      workload_ = std::make_unique<exp::Workload>(r.workload);
    const CondensedDag dag(workload_->graph(), sizes, r.sigma);
    Entry e;
    e.units = dag.num_units();
    for (std::size_t l = 1; l <= dag.num_levels(); ++l)
      e.qstar.push_back(ndf::parallel_cache_complexity(
          workload_->tree(), dag.decomposition(l)));
    return entries_.emplace(key, std::move(e)).first->second;
  }

 private:
  struct Key {
    std::string label;
    double sigma;
    std::vector<double> sizes;
    bool operator<(const Key& o) const {
      return std::tie(label, sigma, sizes) < std::tie(o.label, o.sigma, o.sizes);
    }
  };
  std::map<std::string, Pmh> machines_;
  std::unique_ptr<exp::Workload> workload_;
  std::map<Key, Entry> entries_;
};

/// Per-cell invariants and, for sb cells measured under the default cache,
/// Theorem 1: Q_l <= Q*(t; σM_l) at every level.
void check_cells(const std::vector<exp::RunPoint>& runs, Reference& ref,
                 Checks& checks) {
  for (const exp::RunPoint& r : runs) {
    const SchedStats& st = r.stats;
    const Reference::Entry& e = ref.get(r);
    const double p = double(ref.machine(r.machine).num_processors());
    std::ostringstream where;
    where << r.workload.label() << " " << r.machine << " " << r.policy
          << " sigma=" << r.sigma << " repeat=" << r.repeat;
    checks.expect(st.utilization <= 1.0 + 1e-12 &&
                      st.makespan >= st.total_work / p * (1.0 - 1e-12) &&
                      st.atomic_units == e.units,
                  "cell invariants (utilization <= 1, makespan >= work/p, "
                  "units match the condensation): " +
                      where.str());
    if (r.policy == "sb" && r.cache.is_default() &&
        !st.measured_misses.empty()) {
      bool within = st.measured_misses.size() == e.qstar.size();
      for (std::size_t l = 0; within && l < e.qstar.size(); ++l)
        within = st.measured_misses[l] <= e.qstar[l];
      checks.expect(within, "Theorem 1, Q_i <= Q*(sigma M_i): " + where.str());
    }
  }
}

/// Counts the traced replica pass sees.
struct Shape {
  double strands = 0.0, edges = 0.0, units = 0.0;
};

struct Pass {
  double wall = 0.0;
  std::vector<SchedStats> stats;  ///< per grid cell
  std::vector<double> cell_s;     ///< per grid cell
};

/// The benchmark's own serial walk of the grid through the layers' public
/// calls — exp::Workload (nd), CondensedDag, SimCore::reset and run (sched)
/// — in the order and with the reuse of the serial sweep path, so each
/// call can be timed from outside. `counted` runs the counted policies;
/// `sink` is attached to cell 0, as the sweep engine does.
Pass replica(const exp::Scenario& s, const std::vector<Pmh>& machines,
             const std::vector<exp::GridPoint>& grid, bool counted,
             Spans* spans, ndf::obs::TraceSink* sink, Shape* shape) {
  Pass out;
  out.stats.resize(grid.size());
  out.cell_s.resize(grid.size());
  const double start = now_s();
  const auto root = open_span(spans, "bench.replica");
  {
    std::unique_ptr<exp::Workload> workload;
    std::vector<std::pair<std::vector<double>, std::unique_ptr<CondensedDag>>>
        dags;
    std::unique_ptr<SimCore> core;  // dies before the dags it points into
    std::size_t cur_w = kNone, cur_s = kNone, built = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const exp::GridPoint& g = grid[i];
      if (g.workload != cur_w) {
        core.reset();
        dags.clear();
        {
          const auto span = open_span(spans, "nd.elaborate", g.workload);
          workload = std::make_unique<exp::Workload>(s.workloads[g.workload]);
        }
        if (shape) {
          shape->strands += double(
              workload->tree().strand_count(workload->tree().root()));
          shape->edges += double(workload->graph().num_edges());
        }
        cur_w = g.workload;
        cur_s = kNone;
      }
      if (g.sigma != cur_s) {
        core.reset();
        dags.clear();
        cur_s = g.sigma;
      }
      const Pmh& m = machines[g.machine];
      const std::vector<double> sizes = ndf::level_cache_sizes(m);
      const CondensedDag* dag = nullptr;
      for (const auto& [key, d] : dags)
        if (key == sizes) dag = d.get();
      if (!dag) {
        {
          const auto span = open_span(spans, "sched.condense", built++);
          dags.emplace_back(sizes, std::make_unique<CondensedDag>(
                                       workload->graph(), sizes,
                                       s.sigmas[g.sigma]));
        }
        dag = dags.back().second.get();
        if (shape) shape->units += double(dag->num_units());
      }
      ndf::SchedOptions opts = exp::point_options(s, g);
      if (i == 0) opts.sink = sink;
      const std::string& p = s.policies[g.policy];
      const double t0 = now_s();
      {
        const auto cell = open_span(spans, "sched.cell", i);
        const auto policy =
            ndf::make_scheduler(counted ? counted_name(p) : p, opts);
        {
          const auto span = open_span(spans, "sched.reset", i);
          if (core)
            core->reset(*dag, m, opts);
          else
            core = std::make_unique<SimCore>(*dag, m, opts);
        }
        const auto span = open_span(spans, "sched.run", i);
        out.stats[i] = core->run(*policy);
      }
      out.cell_s[i] = now_s() - t0;
    }
  }
  out.wall = now_s() - start;
  return out;
}

double sum(const std::vector<double>& v) {
  double t = 0.0;
  for (double x : v) t += x;
  return t;
}

void end_to_end(const RunConfig& cfg, const exp::Scenario& s, Report& report,
                Checks& checks) {
  // The first sweep warms up, is checked and gives the digest and the peak
  // memory; the ones after it are timed, between reference passes.
  const double start = now_s();
  const SweepRun warm = run_sweep(s, 1);
  const double rss = peak_rss_mb();
  const std::uint64_t digest = fnv1a(emit(s.name, warm.runs));
  Reference ref(s);
  check_cells(warm.runs, ref, checks);
  std::vector<double> items, setup, wall_items;
  HostSpeed host(1);
  while (int(items.size()) < kMinIterations ||
         now_s() - start < cfg.seconds) {
    const SweepRun r = run_sweep(s, 1);
    const double k = host.to_nominal();
    items.push_back(double(r.runs.size()) / (r.wall * k));
    setup.push_back((r.phases.workload_build + r.phases.condensation) * k);
    wall_items.push_back(double(r.runs.size()) / r.wall);
    checks.expect(fnv1a(emit(s.name, r.runs)) == digest,
                  "sweep output repeats at one seed");
  }
  print_digest(cfg, digest);
  print_samples("items_per_s", items);
  print_samples("wall items_per_s", wall_items);
  print_samples("reference pass s", host.passes());
  report.set("items_per_s", median(items));
  report.set("setup_s", median(setup));
  report.set("peak_rss_mb", rss);
}

/// `pool_jobs` > 1 adds a Sweep pass on the thread pool for the pool
/// metrics.
void traced(const RunConfig& cfg, const exp::Scenario& s,
            std::size_t pool_jobs, Report& report, Checks& checks,
            Spans& spans) {
  counting_self_test(checks);
  std::vector<Pmh> machines;
  for (const std::string& spec : s.machines)
    machines.push_back(ndf::make_pmh(spec));
  const std::vector<exp::GridPoint> grid = exp::expand_grid(s);

  // Walks of the grid: untraced; with spans around each layer call (every
  // time below comes from it); untraced again, so the tracing overhead is
  // taken against both neighbours; and with counted policies and a trace
  // sink, for the policy counts and pick/hook times only — the counting
  // wrapper's clock reads would swamp the cell times.
  const Pass plain =
      replica(s, machines, grid, false, nullptr, nullptr, nullptr);
  Shape shape;
  const Pass timed =
      replica(s, machines, grid, false, &spans, nullptr, &shape);
  const double untraced_s =
      (plain.wall +
       replica(s, machines, grid, false, nullptr, nullptr, nullptr).wall) /
      2.0;
  take_tallies();
  CountingSink sink;
  const Pass counted =
      replica(s, machines, grid, true, nullptr, &sink, nullptr);
  const PolicyTally all = total_tally(take_tallies());
  std::fprintf(stderr, "counted walk: %.3f s, untraced walk: %.3f s\n",
               counted.wall, untraced_s);
  bool same = true;
  for (std::size_t i = 0; i < grid.size(); ++i)
    same = same && same_stats(plain.stats[i], timed.stats[i]) &&
           same_stats(plain.stats[i], counted.stats[i]);
  checks.expect(same,
                "spans, counted policies and the trace sink leave SchedStats "
                "unchanged");

  double occupancy = 0.0;
  if (s.measure_misses) {
    exp::Scenario off = s;
    off.measure_misses = false;
    occupancy = sum(plain.cell_s) -
                sum(replica(off, machines, grid, false, nullptr, nullptr,
                            nullptr)
                        .cell_s);
  }

  SweepRun sw;
  {
    const auto span = spans.open("exp.sweep", 1);
    sw = run_sweep(s, 1);
  }
  auto emit_span = spans.open("exp.emit");
  const std::string out = emit(s.name, sw.runs);
  const double emit_s = emit_span.close();
  print_digest(cfg, fnv1a(out));
  Reference ref(s);
  check_cells(sw.runs, ref, checks);
  bool fidelity = sw.runs.size() == grid.size();
  for (std::size_t i = 0; fidelity && i < grid.size(); ++i)
    fidelity = same_stats(sw.runs[i].stats, plain.stats[i]);
  checks.expect(fidelity, "the replica reproduces the sweep's SchedStats");

  report.set("nd.elaborate_s", spans.total("nd.elaborate"));
  report.set("nd.strands", shape.strands);
  report.set("nd.edges", shape.edges);
  report.set("sched.condense_s", spans.total("sched.condense"));
  report.set("sched.units", shape.units);
  set_core_metrics(report, spans, all);

  const std::vector<double> cells = spans.durations("sched.cell");
  std::map<std::string, double> by_policy;
  for (std::size_t i = 0; i < grid.size(); ++i)
    by_policy[s.policies[grid[i].policy]] += cells[i];
  for (const auto& [p, t] : by_policy) report.set("sched." + p + ".cells_s", t);

  double misses = 0.0;
  std::vector<double> q_ratio(2, 0.0);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const SchedStats& st = plain.stats[i];
    misses += sum(st.measured_misses);
    if (sw.runs[i].policy != "sb" || st.measured_misses.empty()) continue;
    const Reference::Entry& e = ref.get(sw.runs[i]);
    for (std::size_t l = 0; l < q_ratio.size() && l < e.qstar.size(); ++l)
      q_ratio[l] = std::max(q_ratio[l],
                            st.measured_misses[l] / std::max(1.0, e.qstar[l]));
  }
  report.set("pmh.occupancy_s", occupancy);
  report.set("pmh.measured_misses", misses);
  report.set("pmh.q_over_qstar_max.L1", q_ratio[0]);
  report.set("pmh.q_over_qstar_max.L2", q_ratio[1]);

  report.set("exp.workload_build_s", sw.phases.workload_build);
  report.set("exp.condensation_s", sw.phases.condensation);
  report.set("exp.cell_execution_s", sw.phases.cell_execution);
  report.set("exp.emit_s", emit_s);
  if (pool_jobs > 1) {
    SweepRun pooled;
    {
      const auto span = spans.open("exp.sweep", std::int64_t(pool_jobs));
      pooled = run_sweep(s, pool_jobs);
    }
    checks.expect(emit(s.name, pooled.runs) == out,
                  "sweep output is identical at jobs=1 and jobs=nproc");
    double busy = 0.0, most = 0.0;
    for (const auto& w : pooled.workers) {
      busy += w.busy_s;
      most = std::max(most, w.busy_s);
    }
    const double n = double(pooled.workers.size());
    const double pool_wall = pooled.phases.workload_build +
                             pooled.phases.condensation +
                             pooled.phases.cell_execution;
    report.set("pool.busy_s", busy);
    report.set("pool.idle_frac", 1.0 - busy / (n * pool_wall));
    report.set("pool.imbalance", most / (busy / n));
  }
  report.set("obs.trace_overhead", timed.wall / untraced_s - 1.0);
  report.set("obs.events", double(spans.size() + sink.events));
}

}  // namespace

void run_sim(const RunConfig& cfg, Report& report, Checks& checks,
             Spans& spans) {
  const bool kernels = cfg.workload == "sim-kernels";
  const exp::Scenario s = kernels ? sim_kernels_scenario(cfg.seed)
                                  : sim_stress_scenario(cfg.seed);
  if (cfg.trace)
    traced(cfg, s, kernels ? cfg.nproc : 1, report, checks, spans);
  else
    end_to_end(cfg, s, report, checks);
}

void counting_self_test(Checks& checks) {
  register_counting_policies();
  take_tallies();
  exp::Scenario s;
  s.name = "self-test";
  s.workloads = exp::parse_workload_list(
      "mm:n=32;lcs:n=128;trs:n=32,np;gen:family=sp,depth=6,fan=3,seed=7");
  s.machines = {"flat:p=8,m1=192,c1=10", "deep2x4"};
  s.policies = {"sb", "ws", "greedy", "serial", "edf"};
  s.measure_misses = true;
  s.repeats = 2;
  exp::Scenario counted = s;
  for (std::string& p : counted.policies) p = counted_name(p);

  const std::vector<exp::RunPoint> plain = run_sweep(s, 1).runs;
  std::vector<exp::RunPoint> wrapped = run_sweep(counted, 1).runs;
  for (exp::RunPoint& r : wrapped) r.policy = uncounted_name(r.policy);
  bool same = plain.size() == wrapped.size();
  for (std::size_t i = 0; same && i < plain.size(); ++i)
    same = same_stats(plain[i].stats, wrapped[i].stats);
  checks.expect(same, "self-test: wrapped policies give identical SchedStats");
  checks.expect(emit(s.name, plain) == emit(s.name, wrapped),
                "self-test: wrapped policies give identical emitter output");
  const auto tallies = take_tallies();
  bool counted_all = tallies.size() == s.policies.size();
  for (const auto& [name, t] : tallies)
    counted_all = counted_all && t.picks > 0 && t.runs > 0;
  checks.expect(counted_all, "self-test: every policy's calls were counted");
}

}  // namespace ndfbench
