// Helpers the workload files share.
#pragma once

#include <map>
#include <string>

#include "counting_policy.hpp"
#include "harness.hpp"
#include "obs/events.hpp"
#include "sched/sim_core.hpp"

namespace ndfbench {

/// Every measured loop runs at least this many iterations, so each
/// reported median has at least three samples.
constexpr int kMinIterations = 3;

/// A trace sink that only counts what the simulator emits: a traced pass
/// runs the library's event hooks without holding every event in memory.
class CountingSink final : public ndf::obs::TraceSink {
 public:
  void on_unit(double, double, std::uint32_t, std::int64_t,
               std::int64_t) override {
    ++events;
  }
  void on_queue_wait(double, double, std::uint32_t, std::int64_t) override {
    ++events;
  }
  void on_cache(ndf::obs::CacheEvent, double, std::uint32_t, std::uint32_t,
                std::int64_t, double, double) override {
    ++events;
  }
  void on_job(ndf::obs::JobEvent, double, std::int64_t, std::uint32_t,
              const char*) override {
    ++events;
  }
  std::size_t events = 0;
};

/// Field-by-field equality of two runs' statistics.
bool same_stats(const ndf::SchedStats& a, const ndf::SchedStats& b);

/// The sum of every policy's tally.
PolicyTally total_tally(const std::map<std::string, PolicyTally>& tallies);

/// The simulator-core metrics of a traced pass that recorded sched.cell,
/// sched.reset and sched.run spans with counted policies.
void set_core_metrics(Report& report, const Spans& spans,
                      const PolicyTally& all);

/// Prints a metric's per-iteration samples to stderr, for judging spread.
void print_samples(const char* metric, const std::vector<double>& samples);

/// Prints the results digest to stderr: runs at one seed must print the
/// same value.
void print_digest(const RunConfig& cfg, std::uint64_t digest);

}  // namespace ndfbench
