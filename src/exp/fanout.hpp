// The grid fan-out: the one engine both grid runners (exp::Sweep and
// serve::ServeSweep) execute their cells through.
//
// A run is a list of cells, the workloads they read, and the condensations
// — one per (workload, σ, cache-size profile) key — built from those
// workloads. The cells are split into *windows*: contiguous cell ranges,
// each naming the workloads and keys its cells need. Windows run in order.
// For each one the fan-out
//
//   1. builds the window's workloads,
//   2. builds the window's condensations,
//   3. runs the window's cells in 4·jobs contiguous chunks, each chunk
//      cycling its cells through one chunk-local SimCore (the body
//      constructs it on the chunk's first cell and reset()s it after), and
//   4. frees the window's dags, then its workloads.
//
// Windows bound what is alive at once. The sweep's windows are `jobs`
// consecutive workloads of its workload-major grid, so at jobs = 1 one
// workload's dags are alive; serve has a single window, because every serve
// cell reads every workload. A chunk's SimCore dies with the chunk, before
// its window's dags are freed: the core's duration table is keyed by dag
// address, and a freed dag's address can come back for the next window's.
//
// At jobs > 1 every build and every chunk is a task on one ThreadPool that
// lives for the whole run. At jobs = 1 there is no pool and no thread: the
// same tasks run inline, in the same order. (A one-worker pool would do
// the same work, but every allocation of its tasks would then come from a
// second malloc arena: on ndfbench's sim-stress workload, the `--stress`
// grid, that raised peak RSS from about 15.7 to 24 MB.) Each cell writes only its own caller-owned slot,
// so the results do not depend on `jobs`.
//
// Progress: a run of one window reports its workloads, condensations and
// cells phases; a run of several reports one cells phase over all of them,
// so its percent and ETA describe the whole run.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "exp/scenario.hpp"
#include "obs/progress.hpp"
#include "sched/condensed_dag.hpp"
#include "sched/sim_core.hpp"
#include "support/thread_pool.hpp"

namespace ndf::exp {

/// Wall-clock seconds of each fan-out phase, summed over windows. A
/// window's phase runs from its first task's start to its last task's end
/// (at jobs > 1, waits for the slowest task included). Emission happens
/// outside the fan-out, so its time is the caller's to measure.
struct PhaseTimes {
  double workload_build = 0.0;  ///< elaborating workload graphs
  double condensation = 0.0;    ///< building CondensedDags
  double cell_execution = 0.0;  ///< simulating grid cells
};

/// A contiguous range of cells plus the workloads and condensation keys
/// those cells read.
struct Window {
  std::size_t begin = 0, end = 0;      ///< cells [begin, end)
  std::vector<std::size_t> workloads;  ///< indices into FanOut::workloads
  std::vector<std::size_t> keys;       ///< indices into FanOut::keys
};

/// Everything a fan-out builds and runs.
struct FanOut {
  std::vector<WorkloadSpec> workloads;
  std::vector<double> sigmas;               ///< what Key::sigma indexes
  std::vector<CondensationPlan::Key> keys;  ///< Key::workload indexes
                                            ///< `workloads`
  /// In cell order; each window names every workload and key its cells
  /// read, and no key or workload is named by two windows.
  std::vector<Window> windows;
};

/// Seconds on the steady clock, for timing phases and cells.
double now_s();

/// The condensations by key index: a key's dag is set while its window
/// runs and null otherwise.
using Dags = std::vector<std::unique_ptr<CondensedDag>>;

/// Runs cell `i`. `core` is the chunk's SimCore, null on the chunk's first
/// cell; the body constructs it or reset()s it onto the cell's dag.
using CellBody = std::function<void(std::size_t i, const Dags& dags,
                                    std::unique_ptr<SimCore>& core)>;

struct FanOutRun {
  PhaseTimes phases;
  /// The pool's per-worker accounting; empty at jobs = 1 (no pool).
  std::vector<ThreadPool::WorkerStats> workers;
};

/// Runs every window of `plan` (see the file comment) with `jobs` >= 1
/// workers, reporting each window's phases to `progress`. A failing task
/// rethrows its exception once every sibling task of its phase finished
/// (wait_all); nothing built is kept.
FanOutRun fan_out(const FanOut& plan, std::size_t jobs,
                  obs::ProgressMeter& progress, const CellBody& body);

}  // namespace ndf::exp
