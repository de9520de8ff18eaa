#include "exp/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "obs/progress.hpp"
#include "pmh/presets.hpp"
#include "sched/condensed_dag.hpp"
#include "sched/registry.hpp"
#include "sched/sim_core.hpp"
#include "support/thread_pool.hpp"

namespace ndf::exp {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Coordinates + stats for one executed cell — identical fields on both
/// execution paths so they cannot drift apart.
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

/// One grid cell's result, padded to a cache line so concurrent writers of
/// adjacent cells never share a line (the RunPoint header alone straddles
/// fewer lines than its heap payload, but the slot boundary is what the
/// writers contend on).
struct alignas(64) ResultSlot {
  RunPoint pt;
  PolicyCost cost;
};

/// Executes grid cell i through `core`, constructing it on first use and
/// reset()-rebinding it afterwards — the shared per-cell body of the serial
/// loop and every parallel chunk. `sink` (non-null for grid cell 0 only —
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

const std::vector<RunPoint>& Sweep::run() {
  if (ran_) return results_;
  // A retry after a mid-grid throw starts from scratch, not from the
  // partial results the failed attempt accumulated.
  results_.clear();
  condensations_ = 0;
  phase_times_ = {};
  engine_counters_ = {};
  policy_costs_.clear();
  worker_stats_.clear();
  validate(scenario_);

  std::vector<Pmh> machines;
  machines.reserve(scenario_.machines.size());
  for (const std::string& spec : scenario_.machines)
    machines.push_back(make_pmh(spec));

  const std::vector<GridPoint> grid = expand_grid(scenario_);
  const std::size_t jobs =
      std::min(jobs_ == 0 ? ThreadPool::default_jobs() : jobs_,
               std::max<std::size_t>(grid.size(), 1));
  policy_costs_.assign(scenario_.policies.size(), PolicyCost{});
  try {
    if (jobs <= 1)
      run_serial(machines, grid);
    else
      run_parallel(jobs, machines, grid);
    for (const PolicyCost& c : policy_costs_) engine_counters_ += c.engine;
  } catch (...) {
    // A failed run must leave the object exactly as if run() was never
    // called: no partial results, no partial (or full-plan) condensation
    // count for callers to mistake for a completed sweep.
    results_.clear();
    condensations_ = 0;
    phase_times_ = {};
    engine_counters_ = {};
    policy_costs_.clear();
    worker_stats_.clear();
    throw;
  }

  // Only a completed grid counts as run: a throw above (bad scenario, bad
  // machine spec, a failure inside a worker) must not poison this object
  // into returning a partial or empty result set as if the sweep succeeded.
  ran_ = true;
  return results_;
}

void Sweep::run_serial(const std::vector<Pmh>& machines,
                       const std::vector<GridPoint>& grid) {
  results_.reserve(grid.size());

  // Condensation cache for the current (workload, σ): one entry per
  // distinct cache-size profile among the machines. The grid is expanded
  // workload-major then σ, so the cache resets exactly when the key
  // changes and never holds more than one workload's dags.
  std::unique_ptr<Workload> workload;
  std::size_t cur_w = std::size_t(-1), cur_s = std::size_t(-1);
  std::vector<std::pair<std::vector<double>, std::unique_ptr<CondensedDag>>>
      dags;
  // One SimCore reused (reset() per cell) across the segment sharing the
  // dag cache. It dies with the cache: freed dags could be reallocated at
  // the same address, which would fool the core's pointer-keyed duration
  // table into serving a stale entry.
  std::unique_ptr<SimCore> core;

  obs::ProgressMeter progress(scenario_.progress, scenario_.name);
  progress.begin_phase("cells", grid.size());
  std::size_t cell_index = 0;
  for (const GridPoint& g : grid) {
    if (g.workload != cur_w) {
      // Drop the core, then the cached dags, BEFORE the workload they
      // point into dies.
      core.reset();
      dags.clear();
      const double t0 = now_s();
      workload = std::make_unique<Workload>(scenario_.workloads[g.workload]);
      phase_times_.workload_build += now_s() - t0;
      cur_w = g.workload;
      cur_s = std::size_t(-1);
    }
    if (g.sigma != cur_s) {
      core.reset();
      dags.clear();
      cur_s = g.sigma;
    }
    const Pmh& m = machines[g.machine];
    std::vector<double> sizes = level_cache_sizes(m);
    const CondensedDag* dag = nullptr;
    for (const auto& [key, d] : dags)
      if (key == sizes) {
        dag = d.get();
        break;
      }
    if (!dag) {
      const double t0 = now_s();
      dags.emplace_back(sizes,
                        std::make_unique<CondensedDag>(
                            workload->graph(), sizes,
                            scenario_.sigmas[g.sigma]));
      phase_times_.condensation += now_s() - t0;
      dag = dags.back().second.get();
      ++condensations_;
    }

    const double t0 = now_s();
    results_.push_back(
        run_cell(scenario_, g, m, *dag, core,
                 cell_index == 0 ? scenario_.trace_sink : nullptr,
                 policy_costs_[g.policy]));
    phase_times_.cell_execution += now_s() - t0;
    ++cell_index;
    progress.tick();
  }
  progress.finish();
}

void Sweep::run_parallel(std::size_t jobs, const std::vector<Pmh>& machines,
                         const std::vector<GridPoint>& grid) {
  const CondensationPlan plan = plan_condensations(scenario_, grid, machines);

  // Shared immutable inputs of the fan-out. Built into slots pre-sized in
  // deterministic plan order; each slot is written by exactly one task.
  std::vector<std::unique_ptr<Workload>> workloads(scenario_.workloads.size());
  std::vector<std::unique_ptr<CondensedDag>> dags(plan.keys.size());
  std::vector<ResultSlot> results(grid.size());

  // Declared after everything the tasks touch: if a phase throws, the
  // pool's destructor drains and joins before any of the data above is
  // torn down. The progress meter outlives the pool's tasks the same way.
  obs::ProgressMeter progress(scenario_.progress, scenario_.name);
  ThreadPool pool(jobs);

  // Phase 1: build each workload the grid references exactly once
  // (elaboration is expensive; distinct workloads are independent).
  double t0 = now_s();
  {
    std::vector<char> used(scenario_.workloads.size(), 0);
    for (const CondensationPlan::Key& k : plan.keys) used[k.workload] = 1;
    std::size_t n_used = 0;
    for (char u : used) n_used += std::size_t(u);
    progress.begin_phase("workloads", n_used);
    std::vector<std::future<void>> futs;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
      if (!used[w]) continue;
      futs.push_back(pool.submit([this, w, &workloads, &progress] {
        workloads[w] = std::make_unique<Workload>(scenario_.workloads[w]);
        progress.tick();
      }));
    }
    wait_all(futs);
    progress.finish();
  }
  phase_times_.workload_build = now_s() - t0;

  // Phase 2: build each distinct workload × σ × cache-profile condensation
  // exactly once — the same invariant the serial path's rolling cache
  // enforces, here made explicit by the plan. The dags then fan out below
  // as shared immutable inputs.
  t0 = now_s();
  {
    progress.begin_phase("condensations", plan.keys.size());
    std::vector<std::future<void>> futs;
    futs.reserve(plan.keys.size());
    for (std::size_t k = 0; k < plan.keys.size(); ++k) {
      futs.push_back(
          pool.submit([this, k, &plan, &workloads, &dags, &progress] {
            const CondensationPlan::Key& key = plan.keys[k];
            dags[k] = std::make_unique<CondensedDag>(
                workloads[key.workload]->graph(), key.sizes,
                scenario_.sigmas[key.sigma]);
            progress.tick();
          }));
    }
    wait_all(futs);
    progress.finish();
  }
  phase_times_.condensation = now_s() - t0;

  // Phase 3: execute the grid in contiguous chunks, a few per worker — a
  // chunk's cells cycle through ONE SimCore (reset() per cell), so all
  // per-run arenas and the (condensation, machine)-keyed duration table
  // amortize over the chunk instead of being rebuilt per cell. Expansion
  // order keeps cells that share a condensation contiguous, so chunk
  // boundaries, not cells, are where the core rebinds to a new dag. Each
  // cell writes only its own padded slot; the merged vector is in
  // expand_grid order and emitter output is byte-identical to the serial
  // runner's at any --jobs value.
  t0 = now_s();
  progress.begin_phase("cells", grid.size());
  parallel_for_chunks(
      pool, grid.size(), 4 * jobs,
      [this, &grid, &plan, &machines, &dags, &results,
       &progress](std::size_t b, std::size_t e) {
        std::unique_ptr<SimCore> core;
        for (std::size_t i = b; i < e; ++i) {
          const GridPoint& g = grid[i];
          // Cell 0 (one cell, one worker) carries the scenario's trace
          // sink; the sink needs no locking because no other cell emits.
          results[i].pt =
              run_cell(scenario_, g, machines[g.machine],
                       *dags[plan.cell[i]], core,
                       i == 0 ? scenario_.trace_sink : nullptr,
                       results[i].cost);
          progress.tick();
        }
      });
  progress.finish();
  phase_times_.cell_execution = now_s() - t0;

  results_.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    PolicyCost& total = policy_costs_[grid[i].policy];
    total.busy_s += results[i].cost.busy_s;
    total.engine += results[i].cost.engine;
    results_.push_back(std::move(results[i].pt));
  }
  // Reported only now: a throw in any phase above leaves the count at the
  // zero run() started from, never at plan size with no results behind it.
  condensations_ = plan.keys.size();
  worker_stats_ = pool.worker_stats();
}

}  // namespace ndf::exp
