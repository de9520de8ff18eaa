// A forwarding scheduler policy that counts and times every call the
// simulator core makes into a wrapped registry policy: `pick` (and how many
// picks left the processor idle), and the init/start/readiness/completion
// hooks. Each registry policy <p> gets a counted twin registered as
// "counted.<p>" through register_scheduler, so the sweep and serve engines
// can run it unchanged. The wrapper only observes: the wrapped policy sees
// the same calls in the same order, so SchedStats and emitter output are
// identical (checked by the self-test in main.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace ndfbench {

/// Calls and time one policy received, summed over every run.
struct PolicyTally {
  std::uint64_t runs = 0;
  std::uint64_t picks = 0;
  std::uint64_t null_picks = 0;  ///< picks that returned no unit
  std::uint64_t unit_completions = 0;
  /// Time inside the wrapped calls, less the timer's own cost per call.
  double pick_s = 0.0;
  double hook_s = 0.0;
};

/// Registers "counted.<p>" for every registered policy <p> (idempotent).
void register_counting_policies();

/// "counted.<policy>".
std::string counted_name(const std::string& policy);

/// "sb" for "counted.sb"; other names unchanged.
std::string uncounted_name(const std::string& policy);

/// Tallies per wrapped policy name since the last call, then clears them.
std::map<std::string, PolicyTally> take_tallies();

}  // namespace ndfbench
