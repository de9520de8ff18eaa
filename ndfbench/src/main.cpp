// ndf_bench — the repository benchmark. One process runs one named
// workload from a seed, checks the outputs, and prints one JSON line:
//
//   ndf_bench --workload=<sim-stress|sim-kernels|serve-stream|native>
//             --seed=<n> --seconds=<s> --trace=<0|1> [--out-dir=<dir>]
//   ndf_bench --self-test
//
// --trace=0 measures the end-to-end metrics with tracing off; --trace=1
// runs the per-layer passes, records spans and writes them to
// <out-dir>/spans-<workload>-seed<n>.json at exit. --self-test runs only
// the counted-policy identity check. The JSON line holds metric values by
// name; run.py turns it into the benchmark result, with the units that
// BENCHMARK.json declares. ndfbench/README.md defines every metric.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <thread>

#include "harness.hpp"
#include "support/args.hpp"
#include "support/check.hpp"
#include "workloads.hpp"

using namespace ndfbench;

namespace {

// The values only: run.py attaches the units BENCHMARK.json declares.
void print_result(const Report& report, const Checks& checks) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              checks.failed() == 0 ? "true" : "false", checks.attempted(),
              checks.failed());
  const char* sep = "";
  for (const auto& [name, value] : report.values()) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  const ndf::Args args(argc, argv);
  for (const std::string& name : args.names())
    NDF_CHECK_MSG(name == "workload" || name == "seed" || name == "seconds" ||
                      name == "trace" || name == "out-dir" ||
                      name == "self-test",
                  "unknown flag --" << name);
  if (args.get("self-test", false)) {
    Checks checks;
    counting_self_test(checks);
    std::printf("self-test: %zu of %zu checks passed\n",
                checks.attempted() - checks.failed(), checks.attempted());
    return checks.failed() == 0 ? 0 : 1;
  }

  RunConfig cfg;
  cfg.workload = args.get("workload", std::string());
  const long long seed = args.get("seed", 1LL);
  NDF_CHECK_MSG(seed >= 0, "--seed must be >= 0");
  cfg.seed = std::uint64_t(seed);
  cfg.seconds = args.get("seconds", 10.0);
  NDF_CHECK_MSG(cfg.seconds > 0, "--seconds must be > 0");
  const long long trace = args.get("trace", 0LL);
  NDF_CHECK_MSG(trace == 0 || trace == 1, "--trace must be 0 or 1");
  cfg.trace = trace == 1;
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());

  Report report;
  Checks checks;
  Spans spans;
  if (cfg.workload == "sim-stress" || cfg.workload == "sim-kernels")
    run_sim(cfg, report, checks, spans);
  else if (cfg.workload == "serve-stream")
    run_serve(cfg, report, checks, spans);
  else if (cfg.workload == "native")
    run_native(cfg, report, checks, spans);
  else
    NDF_CHECK_MSG(false, "unknown --workload '"
                             << cfg.workload
                             << "' (sim-stress, sim-kernels, serve-stream, "
                                "native)");

  if (cfg.trace) {
    for (const auto& [layer, self] : spans.layer_self_times())
      report.set(layer + ".self_s", self);
    const std::filesystem::path dir =
        args.get("out-dir", std::string(".bench_out"));
    std::filesystem::create_directories(dir);
    spans.write_json((dir / ("spans-" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed) + ".json"))
                         .string(),
                     cfg);
  }
  for (const auto& [name, value] : report.values())
    checks.expect(std::isfinite(value), "metric " + name + " is finite");
  print_result(report, checks);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ndf_bench: " << e.what() << "\n";
    return 1;
  }
}
