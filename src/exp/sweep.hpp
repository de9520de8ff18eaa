// The sweep runner: expands a Scenario's grid and executes every point,
// sharing one CondensedDag across everything that can share it — all
// policies, repeats, α' values and machines with the same cache-size
// profile reuse the condensation built for their (workload, σ), so a
// 4-policy × 7-machine scaling sweep builds one condensation, not 28.
//
// Execution is the grid fan-out (exp/fanout.hpp): plan_condensations names
// every key up front, and the workload-major grid is cut into windows of
// `jobs` consecutive workloads. Each window builds its workloads and
// condensations, runs its cells in chunks through a chunk-local SimCore
// (reset() per cell, so per-cell cost is the simulation itself, not
// allocation churn), and frees its dags before the next window. Expansion
// order keeps cells sharing a (condensation, machine) contiguous, so the
// core's cached duration table is recomputed once per binding, not once
// per cell. Each cell writes only its own pre-sized result slot, so the
// results are in expand_grid order and emitter output is byte-identical at
// every `--jobs` value. `jobs == 1` runs the same windows inline, with no
// thread, and one workload's dags alive at a time.
//
// condensations_built() exposes the build count so tests can assert the
// reuse invariant ("exactly once per workload × σ × cache profile"). A run
// that throws leaves the object fully reset (no results, zero
// condensations) and a later run() retries from scratch.
#pragma once

#include <cstddef>

#include "exp/fanout.hpp"
#include "exp/scenario.hpp"
#include "sched/sim_core.hpp"
#include "support/thread_pool.hpp"

namespace ndf::exp {

/// What the cells of one policy cost, summed over the grid: the seconds a
/// worker spent inside them (policy construction, core reset and the run)
/// and the engine counters of their runs. The counters are equal at every
/// `jobs` value; the seconds are wall-clock.
struct PolicyCost {
  double busy_s = 0.0;
  EngineCounters engine;
};

class Sweep {
 public:
  /// `jobs` is the worker count for grid execution and the number of
  /// workloads per window: 0 (the default) means one worker per hardware
  /// thread, 1 runs every task inline on the calling thread, and any value
  /// is clamped to the grid size so tiny sweeps don't spawn threads they
  /// cannot feed.
  explicit Sweep(Scenario s, std::size_t jobs = 0)
      : scenario_(std::move(s)), jobs_(jobs) {}

  /// Expands and executes the grid (first call; later calls return the
  /// cached results). Points are emitted in expand_grid order.
  const std::vector<RunPoint>& run();

  const Scenario& scenario() const { return scenario_; }
  /// Results so far (empty before run()).
  const std::vector<RunPoint>& results() const { return results_; }
  /// Number of CondensedDags this sweep built (== distinct
  /// workload × σ × cache-size-profile combinations touched). Zero until
  /// a run completes — a failed run does not report a partial count.
  std::size_t condensations_built() const { return condensations_; }
  /// Per-phase wall-clock of the completed run, summed over its windows
  /// (zeros before/without one).
  const PhaseTimes& phase_times() const { return phase_times_; }
  /// Engine counters summed over every cell of the completed run (zeros
  /// before/without one) — equal at every `jobs` value.
  const EngineCounters& engine_counters() const { return engine_counters_; }
  /// Per-policy cell cost of the completed run, indexed like
  /// scenario().policies (empty before/without one).
  const std::vector<PolicyCost>& policy_costs() const {
    return policy_costs_;
  }
  /// Per-worker busy/idle accounting of the completed run's thread pool
  /// (empty before a run, and at jobs = 1 — there are no workers).
  const std::vector<ThreadPool::WorkerStats>& worker_stats() const {
    return worker_stats_;
  }
  /// The worker count requested at construction (0 = auto).
  std::size_t jobs() const { return jobs_; }

 private:
  void clear_results();

  Scenario scenario_;
  std::size_t jobs_ = 0;
  std::vector<RunPoint> results_;
  std::size_t condensations_ = 0;
  PhaseTimes phase_times_;
  EngineCounters engine_counters_;
  std::vector<PolicyCost> policy_costs_;
  std::vector<ThreadPool::WorkerStats> worker_stats_;
  bool ran_ = false;
};

}  // namespace ndf::exp
