// "edf" policy: the deadline-aware entry of the registry, after the
// sledge-serverless SCHEDULER_EDF option. Deadlines live on *jobs* (the
// service mode's admission unit, src/serve/), not on atomic units, so the
// policy splits across the two layers:
//
//   - Admission (service mode): the registration's deadline_aware flag
//     makes the serve engine order queued jobs earliest-absolute-deadline
//     first — non-preemptive EDF over job DAGs, ties broken by arrival
//     time then submission index. Jobs without a deadline sort last.
//   - Unit order (inside one job, and in batch sweeps where there is no
//     job stream): a single DAG has no deadlines to compare, so the unit
//     discipline degenerates to the greedy baseline — one global FIFO of
//     ready units under the distributed optimal-replacement charge. Batch
//     edf stats are therefore bit-identical to greedy's (tested), which
//     keeps the policy meaningful on every driver without forking the
//     cache model.
#include <deque>
#include <memory>

#include "sched/registry.hpp"

namespace ndf {

namespace {

class EdfScheduler final : public Scheduler {
 public:
  explicit EdfScheduler(const SchedOptions&) {}

  const char* name() const override { return "edf"; }

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
  std::deque<int> ready_;  // global FIFO — greedy's unit discipline
};

}  // namespace

namespace detail {
void register_edf_scheduler() {
  register_scheduler(
      "edf",
      "deadline-aware: EDF-over-jobs admission in service mode; greedy "
      "unit order within a job",
      [](const SchedOptions& opts) -> std::unique_ptr<Scheduler> {
        return std::make_unique<EdfScheduler>(opts);
      },
      /*deadline_aware=*/true);
}
}  // namespace detail

}  // namespace ndf
