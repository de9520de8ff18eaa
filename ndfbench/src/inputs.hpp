// The benchmark's inputs: each workload's specs and streams as a pure
// function of the seed. The library only ever sees what these return.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scenario.hpp"
#include "serve/engine.hpp"

namespace ndfbench {

namespace exp = ndf::exp;
namespace serve = ndf::serve;

/// `shape` (a gen:family=sp spec without seed) with a seed drawn from
/// `seed` whose tree has within 2% of the strands of the `ref_seed` tree.
/// The seed changes the DAG's shape — series/parallel choices, cross
/// edges, leaf work — while the volume of work stays put, so throughput
/// is comparable across seeds.
std::string sized_sp_spec(const std::string& shape, std::uint64_t ref_seed,
                          std::uint64_t seed);

/// sim-stress: the `ndf_sweep --stress` grid (6 deep/wide generated DAGs
/// × 2 σ × 3 machines × 4 policies × 7 repeats = 1008 cells), misses off.
exp::Scenario sim_stress_scenario(std::uint64_t seed);

/// sim-kernels: the paper's eight kernels at measurement sizes plus np
/// variants of three, × deep2x4/deep4x4 × sb/ws/greedy × 2 σ, with
/// measured misses — the Q_i-vs-Q* experiment.
exp::Scenario sim_kernels_scenario(std::uint64_t seed);

/// serve-stream: a 6-tenant open Poisson stream over a kernel+gen mix on
/// deep2x4 with persistent occupancy, under sb/ws/greedy/edf. The rate is
/// fixed below saturation (checked each run from isolated service times).
serve::ServeScenario serve_stream_scenario(std::uint64_t seed);
/// Arrival rate of the serve-stream stream, jobs per simulated time unit.
double serve_stream_rate();

/// native: two kernels and a generated wavefront, each with a fixed spin
/// per declared work unit (the benchmark repeats calls until a timed run
/// lasts 100 ms or more). The seed reaches native only through the
/// executor's steal-victim seeds.
struct NativeInput {
  exp::WorkloadSpec spec;
  double spin = 0.0;
};
std::vector<NativeInput> native_inputs();

}  // namespace ndfbench
