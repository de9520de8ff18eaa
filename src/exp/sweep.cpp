#include "exp/sweep.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/progress.hpp"
#include "pmh/presets.hpp"
#include "sched/registry.hpp"

namespace ndf::exp {

namespace {

/// Coordinates + stats for one executed cell.
RunPoint make_run_point(const Scenario& s, const GridPoint& g, const Pmh& m,
                        const SchedOptions& opts) {
  RunPoint pt;
  pt.workload = s.workloads[g.workload];
  pt.machine = s.machines[g.machine];
  pt.machine_desc = m.to_string();
  pt.policy = s.policies[g.policy];
  pt.cache = s.cache_models[g.cache];
  pt.sigma = opts.sigma;
  pt.alpha_prime = opts.alpha_prime;
  pt.repeat = g.repeat;
  pt.seed = opts.seed;
  return pt;
}

/// Executes grid cell i through `core`, constructing it on first use and
/// reset()-rebinding it afterwards. `sink` (non-null for grid cell 0 only —
/// the scenario's trace_sink) records the cell's event stream; the cell's
/// seconds and engine counters are added to `cost`.
RunPoint run_cell(const Scenario& s, const GridPoint& g, const Pmh& m,
                  const CondensedDag& dag, std::unique_ptr<SimCore>& core,
                  obs::TraceSink* sink, PolicyCost& cost) {
  const double t0 = now_s();
  SchedOptions opts = point_options(s, g);
  opts.sink = sink;
  const auto policy = make_scheduler(s.policies[g.policy], opts);
  if (core)
    core->reset(dag, m, opts);
  else
    core = std::make_unique<SimCore>(dag, m, opts);
  RunPoint pt = make_run_point(s, g, m, opts);
  pt.stats = core->run(*policy);
  cost.engine += core->counters();
  cost.busy_s += now_s() - t0;
  return pt;
}

}  // namespace

void Sweep::clear_results() {
  results_.clear();
  condensations_ = 0;
  phase_times_ = {};
  engine_counters_ = {};
  policy_costs_.clear();
  worker_stats_.clear();
}

const std::vector<RunPoint>& Sweep::run() {
  if (ran_) return results_;
  // A retry after a mid-grid throw starts from scratch, not from the
  // partial results the failed attempt accumulated.
  clear_results();
  validate(scenario_);

  std::vector<Pmh> machines;
  machines.reserve(scenario_.machines.size());
  for (const std::string& spec : scenario_.machines)
    machines.push_back(make_pmh(spec));

  const std::vector<GridPoint> grid = expand_grid(scenario_);
  const std::size_t jobs =
      std::min(jobs_ == 0 ? ThreadPool::default_jobs() : jobs_,
               std::max<std::size_t>(grid.size(), 1));
  try {
    CondensationPlan cplan = plan_condensations(scenario_, grid, machines);
    FanOut plan;
    plan.workloads = scenario_.workloads;
    plan.sigmas = scenario_.sigmas;
    plan.keys = std::move(cplan.keys);
    // Windows of `jobs` consecutive workloads: the grid is workload-major
    // with the same cell count per workload, so each window is one
    // contiguous cell range.
    const std::size_t W = scenario_.workloads.size();
    const std::size_t per_workload = grid.size() / W;
    for (std::size_t w0 = 0; w0 < W; w0 += jobs) {
      Window win;
      const std::size_t w1 = std::min(w0 + jobs, W);
      win.begin = w0 * per_workload;
      win.end = w1 * per_workload;
      for (std::size_t w = w0; w < w1; ++w) win.workloads.push_back(w);
      plan.windows.push_back(std::move(win));
    }
    for (std::size_t k = 0; k < plan.keys.size(); ++k)
      plan.windows[plan.keys[k].workload / jobs].keys.push_back(k);

    // Each cell writes only its own result and cost slot, so the results
    // are in grid order whatever order the cells complete in.
    results_.resize(grid.size());
    std::vector<PolicyCost> costs(grid.size());
    obs::ProgressMeter progress(scenario_.progress, scenario_.name);
    FanOutRun run = fan_out(
        plan, jobs, progress,
        [&](std::size_t i, const Dags& dags, std::unique_ptr<SimCore>& core) {
          const GridPoint& g = grid[i];
          // Cell 0 (one cell, one worker) carries the scenario's trace
          // sink; the sink needs no locking because no other cell emits.
          results_[i] = run_cell(scenario_, g, machines[g.machine],
                                 *dags[cplan.cell[i]], core,
                                 i == 0 ? scenario_.trace_sink : nullptr,
                                 costs[i]);
        });

    policy_costs_.assign(scenario_.policies.size(), PolicyCost{});
    for (std::size_t i = 0; i < costs.size(); ++i) {
      PolicyCost& total = policy_costs_[grid[i].policy];
      total.busy_s += costs[i].busy_s;
      total.engine += costs[i].engine;
      engine_counters_ += costs[i].engine;
    }
    condensations_ = plan.keys.size();
    phase_times_ = run.phases;
    worker_stats_ = std::move(run.workers);
  } catch (...) {
    // A failed run must leave the object exactly as if run() was never
    // called: no partial results, no partial (or full-plan) condensation
    // count for callers to mistake for a completed sweep.
    clear_results();
    throw;
  }

  // Only a completed grid counts as run: a throw above (bad scenario, bad
  // machine spec, a failure inside a worker) must not poison this object
  // into returning a partial or empty result set as if the sweep succeeded.
  ran_ = true;
  return results_;
}

}  // namespace ndf::exp
