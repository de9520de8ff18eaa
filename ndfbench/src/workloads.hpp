// The four benchmark workloads. Each runs in one of two modes:
//
//   - end-to-end (cfg.trace false): the measured loop, with tracing off,
//     sets every end-to-end metric;
//   - traced (cfg.trace true): the per-layer passes set the per-layer
//     metrics the workload reaches and record spans.
//
// Both modes check the program's outputs into `checks`.
#pragma once

#include "harness.hpp"

namespace ndfbench {

/// sim-stress and sim-kernels; the sweeps run at jobs = 1, and sim-kernels'
/// traced run adds a jobs = nproc pass for the thread-pool metrics.
void run_sim(const RunConfig& cfg, Report& report, Checks& checks,
             Spans& spans);
void run_serve(const RunConfig& cfg, Report& report, Checks& checks,
               Spans& spans);
void run_native(const RunConfig& cfg, Report& report, Checks& checks,
                Spans& spans);

/// Wrapped ("counted.<p>") and plain runs of all five policies give
/// identical SchedStats and emitter output.
void counting_self_test(Checks& checks);

}  // namespace ndfbench
