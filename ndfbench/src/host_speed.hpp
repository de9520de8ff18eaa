// Host-speed normalisation of the end-to-end times.
//
// The benchmark runs on a few vCPUs of a shared host whose speed drifts by
// tens of percent in phases of seconds to minutes: the same sim-stress
// build measured 342 and 575 cells per wall second within a few minutes.
// No median within one run removes a drift that outlasts the run, so the
// end-to-end loops time a fixed reference pass — benchmark code that no
// change to the library touches — before the first measured iteration and
// after each one. An iteration's wall time w is reported as
//
//     w × kNominalPassS ÷ (mean of the two passes around it),
//
// the time it would take on a host that runs one pass in kNominalPassS.
// A change to the library moves w and not the passes, so it shows in full;
// a slower host moves both, and the ratio cancels most of that.
#pragma once

#include <cstddef>
#include <vector>

namespace ndfbench {

/// The reference pass's time on the host the bounds were set on (4-vCPU
/// KVM x86-64 at its usual speed): the unit normalised times are given in.
constexpr double kNominalPassS = 0.1;

/// Times reference passes between the iterations of a measured loop.
class HostSpeed {
 public:
  /// `threads` threads share a pass of `threads` times one thread's work:
  /// a loop that runs on nproc threads is compared with what the host's
  /// nproc threads get through together. The constructor times the first
  /// pass.
  explicit HostSpeed(std::size_t threads);

  /// Times the next pass and returns the factor that turns the wall time
  /// of the iteration since the previous pass into nominal time:
  /// kNominalPassS ÷ (mean of the two passes).
  double to_nominal();

  /// Every pass timed so far, in seconds.
  const std::vector<double>& passes() const { return passes_; }

 private:
  double pass() const;

  std::size_t threads_;
  std::vector<double> passes_;
};

}  // namespace ndfbench
