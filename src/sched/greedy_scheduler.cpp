// "greedy" policy: a centralized Brent-style greedy scheduler — one global
// FIFO queue of ready atomic units; any idle processor takes the next unit.
// No anchoring, no capacity constraints, no stealing.
//
// Cache model: the distributed optimal-replacement charge of the SB
// accounting (each maximal task's footprint loaded exactly once, latency
// spread uniformly over its units), so total busy time is exactly
// T1 + Σi Q(t;σMi)·Ci — the numerator of the Eq. (22) balanced reference.
// Greedy therefore makes Eq. (22) executable: its makespan is bounded below
// by (total_work + miss_cost)/p and shows how close a schedule with ideal
// locality but no locality *constraints* gets to perfect balance.
//
// Under SchedOptions::measure_misses the core also reports what that
// "ideal locality" charge hides: the simulated LRU occupancy layer
// (pmh/occupancy.hpp) measures the reloads a global FIFO actually incurs
// when consecutive units land on unrelated caches.
#include <deque>
#include <memory>

#include "sched/registry.hpp"

namespace ndf {

namespace {

class GreedyScheduler final : public Scheduler {
 public:
  explicit GreedyScheduler(const SchedOptions&) {}

  const char* name() const override { return "greedy"; }

  void init(SimCore& core) override {
    core_ = &core;
    unit_dur_ = &core.distributed_unit_durations();
    core.charge_condensed_footprints();
  }

  void on_start() override {
    for (int u : core_->initially_ready_units()) ready_.push_back(u);
  }

  void on_task_ready(std::size_t level, int task) override {
    if (level == 1) ready_.push_back(task);
  }

  /// A null pick changes nothing, so skipped picks need no replay.
  bool skip_picks(std::size_t) override { return true; }

  Assignment pick(std::size_t, double) override {
    if (ready_.empty()) return {};
    const int u = ready_.front();
    ready_.pop_front();
    return {u, (*unit_dur_)[u]};
  }

 private:
  SimCore* core_ = nullptr;
  const std::vector<double>* unit_dur_ = nullptr;  // core's cached table
  std::deque<int> ready_;  // global FIFO
};

}  // namespace

namespace detail {
void register_greedy_scheduler() {
  register_scheduler(
      "greedy",
      "centralized Brent-style greedy: global FIFO, Eq. (22) miss charge",
      [](const SchedOptions& opts) -> std::unique_ptr<Scheduler> {
        return std::make_unique<GreedyScheduler>(opts);
      });
}
}  // namespace detail

}  // namespace ndf
