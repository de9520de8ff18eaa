#include "common.hpp"

#include <cstdio>

namespace ndfbench {

bool same_stats(const ndf::SchedStats& a, const ndf::SchedStats& b) {
  return a.makespan == b.makespan && a.total_work == b.total_work &&
         a.misses == b.misses && a.miss_cost == b.miss_cost &&
         a.atomic_units == b.atomic_units && a.anchors == b.anchors &&
         a.steals == b.steals && a.utilization == b.utilization &&
         a.measured_misses == b.measured_misses &&
         a.comm_cost == b.comm_cost &&
         a.measured_writebacks == b.measured_writebacks &&
         a.contention_cost == b.contention_cost;
}

PolicyTally total_tally(const std::map<std::string, PolicyTally>& tallies) {
  PolicyTally all;
  for (const auto& [name, t] : tallies) {
    all.runs += t.runs;
    all.picks += t.picks;
    all.null_picks += t.null_picks;
    all.unit_completions += t.unit_completions;
    all.pick_s += t.pick_s;
    all.hook_s += t.hook_s;
  }
  return all;
}

void set_core_metrics(Report& report, const Spans& spans,
                      const PolicyTally& all) {
  std::vector<double> cell_ms = spans.durations("sched.cell");
  for (double& t : cell_ms) t *= 1e3;
  report.set("sched.reset_s", spans.total("sched.reset"));
  report.set("sched.run_self_s",
             spans.total("sched.run") - all.pick_s - all.hook_s);
  report.set("sched.unit_completions", double(all.unit_completions));
  report.set("sched.cell_ms_p50", quantile(cell_ms, 0.5));
  report.set("sched.cell_ms_p99", quantile(cell_ms, 0.99));
  report.set("sched.cell_samples", double(cell_ms.size()));
  report.set("sched.picks", double(all.picks));
  report.set("sched.null_picks", double(all.null_picks));
  report.set("sched.useful_pick_ratio",
             all.picks ? double(all.picks - all.null_picks) / double(all.picks)
                       : 0.0);
  report.set("sched.pick_s", all.pick_s);
  report.set("sched.hook_s", all.hook_s);
}

void print_samples(const char* metric, const std::vector<double>& samples) {
  std::fprintf(stderr, "samples %s:", metric);
  for (double v : samples) std::fprintf(stderr, " %.6g", v);
  std::fprintf(stderr, "\n");
}

void print_digest(const RunConfig& cfg, std::uint64_t digest) {
  std::fprintf(stderr, "digest %s seed=%llu %016llx\n", cfg.workload.c_str(),
               (unsigned long long)cfg.seed, (unsigned long long)digest);
}

}  // namespace ndfbench
