#include "inputs.hpp"

#include <cmath>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace ndfbench {

namespace {

constexpr double kSpWindow = 0.02;

std::size_t sp_strands(const std::string& shape, std::uint64_t seed) {
  const ndf::SpawnTree t = ndf::exp::build_workload_tree(
      ndf::exp::parse_workload(shape + ",seed=" + std::to_string(seed)));
  return t.strand_count(t.root());
}

}  // namespace

std::string sized_sp_spec(const std::string& shape, std::uint64_t ref_seed,
                          std::uint64_t seed) {
  const double target = double(sp_strands(shape, ref_seed));
  std::uint64_t state = seed;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    const std::uint64_t cand = ndf::splitmix64(state) % 1000000;
    if (std::abs(double(sp_strands(shape, cand)) - target) <=
        kSpWindow * target)
      return shape + ",seed=" + std::to_string(cand);
  }
  NDF_CHECK_MSG(false, "no seed of " << shape << " within " << kSpWindow
                                     << " of the reference size");
  return {};
}

exp::Scenario sim_stress_scenario(std::uint64_t seed) {
  exp::Scenario s;
  s.name = "sim-stress";
  s.workloads = {
      exp::parse_workload(sized_sp_spec(
          "gen:family=sp,depth=9,fan=4,work=32,cross=60", 11, 2 * seed)),
      exp::parse_workload(sized_sp_spec(
          "gen:family=sp,depth=11,fan=3,work=32,cross=60", 13, 2 * seed + 1)),
  };
  for (const exp::WorkloadSpec& w : exp::parse_workload_list(
           "gen:family=wavefront,n=96;gen:family=forkjoin,depth=64,fan=48;"
           "gen:family=diamond,depth=128,fan=24;gen:family=chain,n=4096"))
    s.workloads.push_back(w);
  s.machines = {"flat16", "deep4x4", "deep2x4"};
  s.policies = {"sb", "ws", "greedy", "serial"};
  s.sigmas = {1.0 / 3.0, 0.5};
  s.repeats = 7;
  s.base_seed = seed;
  return s;
}

exp::Scenario sim_kernels_scenario(std::uint64_t seed) {
  exp::Scenario s;
  s.name = "sim-kernels";
  s.workloads = exp::parse_workload_list(
      "mm:n=128;trs:n=128;cholesky:n=128;lu:n=128;lcs:n=1024;gotoh:n=512;"
      "fw1d:n=128;fw2d:n=128;mm:n=128,np;trs:n=128,np;lcs:n=1024,np");
  s.machines = {"deep2x4", "deep4x4"};
  s.policies = {"sb", "ws", "greedy"};
  s.sigmas = {0.25, 0.5};
  s.measure_misses = true;
  s.base_seed = seed;
  return s;
}

double serve_stream_rate() { return 2.5e-7; }

serve::ServeScenario serve_stream_scenario(std::uint64_t seed) {
  serve::ServeScenario s;
  s.name = "serve-stream";
  s.mix = {
      exp::parse_workload("mm:n=48"),
      exp::parse_workload("trs:n=48,np"),
      exp::parse_workload(sized_sp_spec(
          "gen:family=sp,depth=9,fan=4,work=32,cross=60", 11, seed)),
      exp::parse_workload("gen:family=wavefront,n=48"),
      exp::parse_workload("gen:family=forkjoin,depth=48,fan=24"),
  };
  serve::ArrivalSpec a;
  a.kind = "poisson";
  a.rate = serve_stream_rate();
  a.jobs = 250;
  a.tenants = 6;
  a.deadline = 6e6;
  a.seed = seed;
  s.jobs = serve::expand_open_arrivals(a, s.mix);
  s.machines = {"deep2x4"};
  s.policies = {"sb", "ws", "greedy", "edf"};
  s.measure_misses = true;
  s.base_seed = seed;
  return s;
}

std::vector<NativeInput> native_inputs() {
  // Large graphs with light bodies, so the executor's own costs (deques,
  // join counters, steals, idling) are a large share of each run. On a
  // 4-vCPU x86-64 host (about 2.4e9 spin iterations per second) one call
  // takes 80-180 ms at 4 threads and 190-450 ms at one.
  return {
      {exp::parse_workload("mm:n=128"), 120},
      {exp::parse_workload("lcs:n=1024"), 250},
      {exp::parse_workload("gen:family=wavefront,n=128"), 400},
  };
}

}  // namespace ndfbench
