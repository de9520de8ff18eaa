#include "counting_policy.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "sched/registry.hpp"

namespace ndfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kPrefix = "counted.";

std::mutex tally_mu;
std::map<std::string, PolicyTally> tallies;  // guarded by tally_mu

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// What a timed region with nothing inside measures: about one clock read.
/// Every timed call carries it, so it is taken off each call's time. The
/// median of batch means, measured once per process.
double timer_floor_s() {
  static const double floor = [] {
    constexpr int kBatches = 21, kReads = 20000;
    std::vector<double> means;
    for (int b = 0; b < kBatches; ++b) {
      Clock::duration total{};
      for (int i = 0; i < kReads; ++i) {
        const Clock::time_point t0 = Clock::now();
        total += Clock::now() - t0;
      }
      means.push_back(seconds(total) / kReads);
    }
    std::nth_element(means.begin(), means.begin() + kBatches / 2, means.end());
    return means[kBatches / 2];
  }();
  return floor;
}

class CountingScheduler final : public ndf::Scheduler {
 public:
  CountingScheduler(std::string policy, std::unique_ptr<ndf::Scheduler> inner)
      : policy_(std::move(policy)), inner_(std::move(inner)) {}

  // Policies are built per simulator run and destroyed after it, on the
  // thread that ran it; the tally is booked once per run.
  ~CountingScheduler() override {
    const std::lock_guard<std::mutex> lock(tally_mu);
    PolicyTally& t = tallies[policy_];
    ++t.runs;
    t.picks += picks_;
    t.null_picks += null_picks_;
    t.unit_completions += unit_completions_;
    t.pick_s += seconds(pick_time_) - double(picks_) * timer_floor_s();
    t.hook_s += seconds(hook_time_) - double(hooks_) * timer_floor_s();
  }
  CountingScheduler(const CountingScheduler&) = delete;
  CountingScheduler& operator=(const CountingScheduler&) = delete;

  const char* name() const override { return inner_->name(); }

  void init(ndf::SimCore& core) override {
    hook([&] { inner_->init(core); });
  }
  void on_start() override {
    hook([&] { inner_->on_start(); });
  }
  ndf::Assignment pick(std::size_t proc, double now) override {
    const Clock::time_point t0 = Clock::now();
    const ndf::Assignment a = inner_->pick(proc, now);
    pick_time_ += Clock::now() - t0;
    ++picks_;
    if (a.unit < 0) ++null_picks_;
    return a;
  }
  void on_task_ready(std::size_t level, int task) override {
    hook([&] { inner_->on_task_ready(level, task); });
  }
  void on_exit_fired(ndf::NodeId n) override {
    hook([&] { inner_->on_exit_fired(n); });
  }
  void on_unit_complete(std::size_t proc, int unit) override {
    ++unit_completions_;
    hook([&] { inner_->on_unit_complete(proc, unit); });
  }

 private:
  template <typename F>
  void hook(F&& f) {
    const Clock::time_point t0 = Clock::now();
    f();
    hook_time_ += Clock::now() - t0;
    ++hooks_;
  }

  std::string policy_;
  std::unique_ptr<ndf::Scheduler> inner_;
  std::uint64_t picks_ = 0, null_picks_ = 0, unit_completions_ = 0;
  std::uint64_t hooks_ = 0;
  Clock::duration pick_time_{}, hook_time_{};
};

}  // namespace

std::string counted_name(const std::string& policy) {
  return kPrefix + policy;
}

std::string uncounted_name(const std::string& policy) {
  const std::string prefix = kPrefix;
  return policy.rfind(prefix, 0) == 0 ? policy.substr(prefix.size()) : policy;
}

void register_counting_policies() {
  for (const ndf::SchedulerInfo& info : ndf::registered_schedulers()) {
    if (info.name.rfind(kPrefix, 0) == 0) continue;
    const std::string inner = info.name;
    ndf::register_scheduler(
        counted_name(inner), "counted " + info.description,
        [inner](const ndf::SchedOptions& opts) {
          return std::make_unique<CountingScheduler>(
              inner, ndf::make_scheduler(inner, opts));
        },
        info.deadline_aware);
  }
}

std::map<std::string, PolicyTally> take_tallies() {
  const std::lock_guard<std::mutex> lock(tally_mu);
  return std::exchange(tallies, {});
}

}  // namespace ndfbench
