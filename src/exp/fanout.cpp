#include "exp/fanout.hpp"

#include <chrono>

namespace ndf::exp {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

/// Runs `task(items[j])` for every j, one task each, ticking
/// `progress` per item, and returns the phase's wall-clock seconds.
template <typename Task>
double build_phase(ThreadPool* pool, obs::ProgressMeter& progress,
                   const std::vector<std::size_t>& items, const Task& task) {
  const double t0 = now_s();
  parallel_for_chunks(pool, items.size(), items.size(),
                      [&](std::size_t b, std::size_t e) {
                        for (std::size_t j = b; j < e; ++j) {
                          task(items[j]);
                          progress.tick();
                        }
                      });
  return now_s() - t0;
}

}  // namespace

FanOutRun fan_out(const FanOut& plan, std::size_t jobs,
                  obs::ProgressMeter& progress, const CellBody& body) {
  NDF_CHECK_MSG(jobs >= 1, "fan_out needs at least one worker");
  // Slots for the built inputs, each written by exactly one task. The dags
  // are declared after the workloads they point into, so they die first.
  std::vector<std::unique_ptr<Workload>> built(plan.workloads.size());
  Dags dags(plan.keys.size());
  // Declared after everything its tasks touch: if a phase throws, the
  // pool's destructor drains and joins before the slots are torn down.
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<ThreadPool>(jobs);

  // One window reports its three phases. Several windows report a single
  // cells phase over all of them, so its percent and ETA (which then
  // include the builds between windows) describe the whole run.
  const bool one_window = plan.windows.size() == 1;
  obs::ProgressMeter quiet;
  obs::ProgressMeter& builds = one_window ? progress : quiet;
  if (!one_window && !plan.windows.empty())
    progress.begin_phase("cells",
                         plan.windows.back().end - plan.windows.front().begin);

  FanOutRun out;
  for (const Window& win : plan.windows) {
    builds.begin_phase("workloads", win.workloads.size());
    out.phases.workload_build +=
        build_phase(pool.get(), builds, win.workloads, [&](std::size_t w) {
          built[w] = std::make_unique<Workload>(plan.workloads[w]);
        });
    builds.finish();
    builds.begin_phase("condensations", win.keys.size());
    out.phases.condensation +=
        build_phase(pool.get(), builds, win.keys, [&](std::size_t k) {
          const CondensationPlan::Key& key = plan.keys[k];
          dags[k] = std::make_unique<CondensedDag>(
              built[key.workload]->graph(), key.sizes,
              plan.sigmas[key.sigma]);
        });
    builds.finish();

    const double t0 = now_s();
    if (one_window) progress.begin_phase("cells", win.end - win.begin);
    parallel_for_chunks(
        pool.get(), win.end - win.begin, 4 * jobs,
        [&](std::size_t b, std::size_t e) {
          std::unique_ptr<SimCore> core;  // dies with the chunk
          for (std::size_t i = win.begin + b; i < win.begin + e; ++i) {
            body(i, dags, core);
            progress.tick();
          }
        });
    if (one_window) progress.finish();
    out.phases.cell_execution += now_s() - t0;

    for (const std::size_t k : win.keys) dags[k].reset();
    for (const std::size_t w : win.workloads) built[w].reset();
  }
  progress.finish();  // the multi-window cells phase; else a no-op
  if (pool) out.workers = pool->worker_stats();
  return out;
}

}  // namespace ndf::exp
