// native: the real-thread executor (src/runtime) in ws and sb modes, at one
// thread and at nproc threads, each call timed from outside.
//
// Timing is like for like: the speedup base is the 1-thread execute(), not
// execute_serial() — that one sorts the graph inside the call, so it is
// reported apart as runtime.serial_s. A timed run repeats one call as
// many times as this host needs for it to last 100 ms or more
// (runtime.min_run_ms shows the shortest), and every figure is a median
// over rounds, taken per call, not a best-of.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>

#include "common.hpp"
#include "host_speed.hpp"
#include "inputs.hpp"
#include "nd/drs.hpp"
#include "pmh/presets.hpp"
#include "runtime/executor.hpp"
#include "runtime/oracle.hpp"
#include "runtime/workbody.hpp"
#include "workloads.hpp"

namespace ndfbench {

namespace {

/// A workload ready to execute: its tree with spin bodies attached and the
/// elaborated graph (which points into the tree).
struct Prepared {
  NativeInput input;
  std::unique_ptr<ndf::SpawnTree> tree;
  std::unique_ptr<ndf::StrandGraph> graph;
  std::size_t strands = 0;
};

std::vector<Prepared> prepare(const std::vector<NativeInput>& inputs,
                              Spans* spans) {
  std::vector<Prepared> out;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto span = open_span(spans, "nd.elaborate", std::int64_t(i));
    Prepared p;
    p.input = inputs[i];
    p.tree = std::make_unique<ndf::SpawnTree>(
        exp::build_workload_tree(p.input.spec));
    ndf::attach_spin_bodies(*p.tree, p.input.spin);
    p.graph = std::make_unique<ndf::StrandGraph>(
        ndf::elaborate(*p.tree, {.np_mode = p.input.spec.np}));
    p.strands = p.tree->strand_count(p.tree->root());
    out.push_back(std::move(p));
  }
  return out;
}

/// One timed run: `reps` calls in a row of execute_serial, or of execute in
/// one mode at one width.
struct Config {
  std::size_t work = 0;  ///< index into the prepared workloads
  bool serial = false;
  ndf::ExecMode mode = ndf::ExecMode::Ws;
  std::size_t threads = 1;
  std::size_t reps = 1;  ///< set by calibrate()
};

/// What one timed run measured: its length, and per call the wall time and
/// the executor's accounting.
struct Run {
  double span = 0.0;  ///< the whole timed run, all `reps` calls
  double wall = 0.0;
  double strands = 0.0, busy = 0.0;
  double steals = 0.0, attempts = 0.0, handoffs = 0.0;
};

/// A timed run should last at least this long, so the clock's resolution
/// and start-up effects stay small against it ...
constexpr double kMinRunS = 0.1;
/// ... so it is sized for 2.5 times that. It is not a failed check when a
/// run comes in shorter: on a shared host the 4-thread executor's speed
/// swings by 2x within a run, and that is no fault of the program.
constexpr double kTargetRunS = 0.25;

/// The calls of one round. `baselines` adds the 1-thread and
/// execute_serial calls the traced run needs for speedup; end-to-end
/// rounds run at nproc threads only.
std::vector<Config> round_configs(std::size_t workloads, const RunConfig& cfg,
                                  bool baselines) {
  std::vector<Config> out;
  for (std::size_t w = 0; w < workloads; ++w) {
    if (baselines) out.push_back({w, true, ndf::ExecMode::Ws, 1});
    for (const ndf::ExecMode mode : {ndf::ExecMode::Ws, ndf::ExecMode::Sb}) {
      if (baselines && cfg.nproc > 1) out.push_back({w, false, mode, 1});
      out.push_back({w, false, mode, cfg.nproc});
    }
  }
  return out;
}

ndf::ExecReport call(const Prepared& p, const Config& c,
                     const ndf::Pmh& machine, const RunConfig& cfg) {
  if (c.serial) return ndf::execute_serial(*p.graph);
  ndf::ExecOptions opts;
  opts.threads = c.threads;
  opts.mode = c.mode;
  opts.seed = cfg.seed + c.work;
  opts.machine = &machine;
  return ndf::execute(*p.graph, opts);
}

/// Sets each config's repetitions so that its timed run lasts about
/// kTargetRunS on this host, from the fastest of a few warm-up calls (the
/// first call on a fresh graph is the slowest): graph size per timed run
/// scales with the host's speed, the work per strand does not.
void calibrate(const std::vector<Prepared>& work, std::vector<Config>& configs,
               const ndf::Pmh& machine, const RunConfig& cfg) {
  for (Config& c : configs) {
    double fastest = std::numeric_limits<double>::infinity();
    for (int i = 0; i < 3; ++i) {
      const double t0 = now_s();
      call(work[c.work], c, machine, cfg);
      fastest = std::min(fastest, now_s() - t0);
    }
    c.reps = std::size_t(std::max(1.0, std::ceil(kTargetRunS / fastest)));
  }
}

/// Runs every config once, in order; folds the deterministic counts of
/// each config's first call into `digest`.
std::vector<Run> run_round(const std::vector<Prepared>& work,
                           const std::vector<Config>& configs,
                           const ndf::Pmh& machine, const RunConfig& cfg,
                           Spans* spans, Checks& checks,
                           std::uint64_t& digest) {
  std::vector<Run> out;
  std::int64_t run_id = 0;
  for (const Config& c : configs) {
    const Prepared& p = work[c.work];
    std::vector<ndf::ExecReport> reports;
    const double t0 = now_s();
    for (std::size_t k = 0; k < c.reps; ++k) {
      const auto span = open_span(
          spans, c.serial ? "runtime.serial" : "runtime.execute", run_id++);
      reports.push_back(call(p, c, machine, cfg));
    }
    Run run;
    run.span = now_s() - t0;
    run.wall = run.span / double(c.reps);
    std::ostringstream what;
    what << p.input.spec.label() << " "
         << (c.serial ? "serial"
             : c.mode == ndf::ExecMode::Ws ? "mode=ws"
                                           : "mode=sb")
         << " threads=" << c.threads;
    if (run.span < kMinRunS)
      std::fprintf(stderr, "note: %.1f ms timed run: %s\n", run.span * 1e3,
                   what.str().c_str());
    if (c.serial) {
      out.push_back(run);
      continue;
    }
    bool accounted = true;
    for (const ndf::ExecReport& rep : reports) {
      std::size_t worker_strands = 0, worker_steals = 0;
      for (const ndf::WorkerReport& w : rep.workers) {
        worker_strands += w.strands;
        worker_steals += w.steals;
        run.busy += w.busy_s;
      }
      accounted = accounted && rep.strands == p.strands &&
                  worker_strands == p.strands && worker_steals == rep.steals;
      run.strands += double(rep.strands);
      run.steals += double(rep.steals);
      run.attempts += double(rep.steal_attempts);
      run.handoffs += double(rep.handoffs);
    }
    checks.expect(accounted,
                  "every strand executed and accounted once: " + what.str());
    what << " strands=" << reports.front().strands
         << " anchors=" << reports.front().anchors << "\n";
    digest = fnv1a(what.str(), digest);
    for (double* f : {&run.strands, &run.busy, &run.steals, &run.attempts,
                      &run.handoffs})
      *f /= double(c.reps);
    out.push_back(run);
  }
  return out;
}

/// Per config, the median of `field` over the rounds, summed over the
/// configs `pick` selects. Medians per call, not per round, keep one slow
/// call from moving a whole round.
template <typename Pick, typename Field>
double sum_of_medians(const std::vector<Config>& configs,
                      const std::vector<std::vector<Run>>& rounds, Pick pick,
                      Field field) {
  double total = 0.0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    if (!pick(configs[c])) continue;
    std::vector<double> v;
    for (const std::vector<Run>& r : rounds) v.push_back(field(r[c]));
    total += median(v);
  }
  return total;
}

/// Untimed: every strand ran exactly once and every dependence arrow was
/// respected, in both modes at nproc threads (runtime/oracle.hpp). Small
/// spin keeps the pass short; the checked structure is the same graph's.
void oracle_pass(const std::vector<NativeInput>& inputs,
                 const ndf::Pmh& machine, const RunConfig& cfg,
                 Checks& checks) {
  for (const NativeInput& in : inputs) {
    ndf::SpawnTree tree = exp::build_workload_tree(in.spec);
    ndf::attach_spin_bodies(tree, 1.0);
    ndf::ExecutionOracle oracle(tree);
    const ndf::StrandGraph g = ndf::elaborate(tree, {.np_mode = in.spec.np});
    for (const ndf::ExecMode mode : {ndf::ExecMode::Ws, ndf::ExecMode::Sb}) {
      oracle.reset();
      ndf::ExecOptions opts;
      opts.threads = cfg.nproc;
      opts.mode = mode;
      opts.seed = cfg.seed;
      opts.machine = &machine;
      ndf::execute(g, opts);
      const std::vector<std::string> violations = oracle.verify(g);
      checks.expect(violations.empty(),
                    "oracle: exactly-once and edge order for " +
                        in.spec.label() +
                        (violations.empty() ? "" : ": " + violations.front()));
    }
  }
}

void end_to_end(const RunConfig& cfg, const std::vector<NativeInput>& inputs,
                const ndf::Pmh& machine, Report& report, Checks& checks) {
  // The first round, after the calibration calls, warms up and gives the
  // digest and the peak memory. Each timed round then builds the workloads
  // afresh — tree, spin bodies and elaboration, the native counterpart of
  // exp::Workload — so set-up is sampled once per round, like the
  // throughput. The rounds run between reference passes on one thread, for
  // the set-up, and on nproc threads, for the executor.
  const double start = now_s();
  std::vector<Prepared> work = prepare(inputs, nullptr);
  std::vector<Config> configs = round_configs(work.size(), cfg, false);
  calibrate(work, configs, machine, cfg);
  std::uint64_t first = fnv1a("");
  run_round(work, configs, machine, cfg, nullptr, checks, first);
  const double rss = peak_rss_mb();
  HostSpeed host_1t(1), host_nt(cfg.nproc);
  std::vector<std::vector<Run>> rounds;
  std::vector<double> setup, wall_items;
  while (int(rounds.size()) < kMinIterations ||
         now_s() - start < cfg.seconds) {
    work.clear();
    const double t0 = now_s();
    work = prepare(inputs, nullptr);
    const double build_s = now_s() - t0;
    std::uint64_t digest = fnv1a("");
    std::vector<Run> round =
        run_round(work, configs, machine, cfg, nullptr, checks, digest);
    checks.expect(digest == first, "executor counts repeat at one seed");
    setup.push_back(build_s * host_1t.to_nominal());
    const double k = host_nt.to_nominal();
    double strands = 0.0, wall = 0.0;
    for (Run& r : round) {
      strands += r.strands;
      wall += r.wall;
      r.wall *= k;
    }
    wall_items.push_back(strands / wall);
    rounds.push_back(std::move(round));
  }
  oracle_pass(inputs, machine, cfg, checks);
  print_digest(cfg, first);
  print_samples("wall items_per_s", wall_items);
  print_samples("setup_s", setup);
  print_samples("reference pass s (1 thread)", host_1t.passes());
  print_samples("reference pass s (nproc threads)", host_nt.passes());
  const auto all = [](const Config&) { return true; };
  report.set("items_per_s",
             sum_of_medians(configs, rounds, all,
                            [](const Run& r) { return r.strands; }) /
                 sum_of_medians(configs, rounds, all,
                                [](const Run& r) { return r.wall; }));
  report.set("setup_s", median(setup));
  report.set("peak_rss_mb", rss);
}

void traced(const RunConfig& cfg, const std::vector<NativeInput>& inputs,
            const ndf::Pmh& machine, Report& report, Checks& checks,
            Spans& spans) {
  const std::vector<Prepared> work = prepare(inputs, &spans);
  double strands = 0.0, edges = 0.0;
  for (const Prepared& p : work) {
    strands += double(p.strands);
    edges += double(p.graph->num_edges());
  }
  // Untraced and traced rounds alternate, so the tracing overhead compares
  // like with like.
  std::vector<Config> configs = round_configs(work.size(), cfg, true);
  calibrate(work, configs, machine, cfg);
  std::vector<std::vector<Run>> plain, rounds;
  std::uint64_t first = 0;
  const double start = now_s();
  while (int(rounds.size()) < kMinIterations ||
         now_s() - start < cfg.seconds) {
    std::uint64_t untraced = fnv1a(""), digest = fnv1a("");
    plain.push_back(
        run_round(work, configs, machine, cfg, nullptr, checks, untraced));
    const auto span = spans.open("bench.round", std::int64_t(rounds.size()));
    rounds.push_back(
        run_round(work, configs, machine, cfg, &spans, checks, digest));
    if (rounds.size() == 1) first = untraced;
    checks.expect(untraced == first && digest == first,
                  "executor counts repeat at one seed");
  }
  oracle_pass(inputs, machine, cfg, checks);
  print_digest(cfg, first);

  const auto sum = [&](auto pick, auto field) {
    return sum_of_medians(configs, rounds, pick, field);
  };
  const std::size_t n = cfg.nproc;
  const auto one = [](const Config& c) { return !c.serial && c.threads == 1; };
  const auto wide = [n](const Config& c) {
    return !c.serial && c.threads == n;
  };
  const auto serial = [](const Config& c) { return c.serial; };
  const auto executed = [](const Config& c) { return !c.serial; };
  const auto wall = [](const Run& r) { return r.wall; };
  const double wall_1t = sum(one, wall), wall_nt = sum(wide, wall);
  const double busy = sum(wide, [](const Run& r) { return r.busy; });
  const double wide_strands = sum(wide, [](const Run& r) { return r.strands; });
  const double steals = sum(wide, [](const Run& r) { return r.steals; });
  const double attempts = sum(wide, [](const Run& r) { return r.attempts; });
  double min_run = std::numeric_limits<double>::infinity();
  for (const std::vector<Run>& round : rounds)
    for (const Run& r : round) min_run = std::min(min_run, r.span);

  report.set("nd.elaborate_s", spans.total("nd.elaborate"));
  report.set("nd.strands", strands);
  report.set("nd.edges", edges);
  report.set("runtime.wall_1t_s", wall_1t);
  report.set("runtime.wall_nt_s", wall_nt);
  report.set("runtime.serial_s", sum(serial, wall));
  report.set("runtime.speedup_vs_1t", wall_1t / wall_nt);
  report.set("runtime.min_run_ms", min_run * 1e3);
  report.set("runtime.steals", steals);
  report.set("runtime.steal_attempts", attempts);
  report.set("runtime.steal_success_ratio",
             attempts > 0 ? steals / attempts : 0.0);
  report.set("runtime.handoffs",
             sum(wide, [](const Run& r) { return r.handoffs; }));
  report.set("runtime.busy_frac", busy / (double(n) * wall_nt));
  report.set("runtime.overhead_us_per_strand",
             (double(n) * wall_nt - busy) / wide_strands * 1e6);
  report.set("obs.trace_overhead",
             sum(executed, wall) /
                     sum_of_medians(configs, plain, executed, wall) -
                 1.0);
  report.set("obs.events", double(spans.size()));
}

}  // namespace

void run_native(const RunConfig& cfg, Report& report, Checks& checks,
                Spans& spans) {
  const std::vector<NativeInput> inputs = native_inputs();
  const ndf::Pmh machine = ndf::make_pmh("deep2x4");
  if (cfg.trace)
    traced(cfg, inputs, machine, report, checks, spans);
  else
    end_to_end(cfg, inputs, machine, report, checks);
}

}  // namespace ndfbench
