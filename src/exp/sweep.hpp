// The sweep runner: expands a Scenario's grid and executes every point,
// sharing one CondensedDag across everything that can share it — all
// policies, repeats, α' values and machines with the same cache-size
// profile reuse the condensation built for their (workload, σ). The
// pre-split code rebuilt it inside every run; on a 4-policy × 7-machine
// scaling sweep that was 28 elaborations+decompositions instead of 1.
//
// Grid cells are independent once their condensation exists, so the runner
// executes them on a thread pool (support/thread_pool.hpp): shared
// condensations are built concurrently first, then cells fan out in
// *chunks* — contiguous grid ranges, a few per worker — rather than one
// pool task per cell. Each chunk runs its cells through one reused SimCore
// (reset() per cell keeps every arena's capacity), so per-cell cost is the
// simulation itself, not allocation churn; expansion order makes cells
// sharing a (condensation, machine) contiguous, so the core's cached
// duration table is recomputed once per binding, not once per cell. Each
// cell writes only its own pre-sized, cache-line-padded result slot, so
// the merged vector is in expand_grid order regardless of completion order
// and emitter output is byte-identical at every `--jobs` value. `jobs == 1`
// bypasses the pool and runs the serial loop (also the path with the
// smallest memory footprint: it keeps at most one workload's dags alive,
// where the parallel engine holds every workload and condensation the grid
// needs at once); the serial loop reuses one core the same way within each
// (workload, σ) segment.
//
// condensations_built() exposes the actual build count so tests can assert
// the reuse invariant ("exactly once per workload × σ × cache profile") —
// both execution paths must report the same number. A run that throws
// leaves the object fully reset (no results, zero condensations) and a
// later run() retries from scratch.
#pragma once

#include <cstddef>

#include "exp/scenario.hpp"
#include "sched/sim_core.hpp"
#include "support/thread_pool.hpp"

namespace ndf::exp {

/// Wall-clock seconds spent in each phase of a sweep, for `--phase-times`
/// style reporting. On the parallel path these are the barrier-to-barrier
/// phase times; on the serial path each activity's time is accumulated as
/// the rolling loop interleaves them. Emission happens outside Sweep, so
/// its time is the caller's to measure.
struct PhaseTimes {
  double workload_build = 0.0;  ///< elaborating workload graphs
  double condensation = 0.0;    ///< building CondensedDags
  double cell_execution = 0.0;  ///< simulating grid cells
};

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
  /// `jobs` is the worker count for grid execution: 0 (the default) means
  /// one worker per hardware thread, 1 forces the legacy serial path, and
  /// any value is clamped to the grid size so tiny sweeps don't spawn
  /// threads they cannot feed.
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
  /// Per-phase wall-clock of the completed run (zeros before/without one).
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
  /// (empty before a run, and on the serial path — there are no workers).
  const std::vector<ThreadPool::WorkerStats>& worker_stats() const {
    return worker_stats_;
  }
  /// The worker count requested at construction (0 = auto).
  std::size_t jobs() const { return jobs_; }

 private:
  void run_serial(const std::vector<Pmh>& machines,
                  const std::vector<GridPoint>& grid);
  void run_parallel(std::size_t jobs, const std::vector<Pmh>& machines,
                    const std::vector<GridPoint>& grid);

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
