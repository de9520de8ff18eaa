// Shared pieces of the benchmark program: the run configuration, output
// checks, the in-memory span recorder, sample statistics and the metrics a
// run reports.
//
// Everything here is benchmark-side code. Spans are recorded around the
// calls the benchmark makes into the library's public API; nothing inside
// the library is instrumented.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace ndfbench {

/// Seconds on the steady clock.
double now_s();

/// One benchmark invocation, from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< how long the measured loop runs
  bool trace = false;     ///< per-layer (traced) run instead of end-to-end
  std::size_t nproc = 1;  ///< hardware threads; the parallel width used
};

/// Median and quantiles of a sample (linear interpolation between order
/// statistics, as numpy's default).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Output checks behind `attempted`/`failed`: every check is counted, and a
/// failure is described on stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// FNV-1a over `s`, continuing from `h`: the results digest that must
/// repeat across runs at one seed.
std::uint64_t fnv1a(std::string_view s,
                    std::uint64_t h = 1469598103934665603ULL);

/// In-memory spans: name, start, end, parent span, and one id per grid
/// cell, job or executor run. The layer is the name's prefix before the
/// first '.'. Spans nest on the recording thread; a layer's self time is
/// the time its spans cover minus the time their child spans cover.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans* owner, std::size_t index) : owner_(owner), index_(index) {}
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Ends the span now; returns its duration in seconds.
    double close();

   private:
    Spans* owner_;
    std::size_t index_;
  };

  /// Opens a span as a child of the innermost open one.
  Scope open(std::string name, std::int64_t id = -1);

  std::size_t size() const { return spans_.size(); }
  /// Durations of every closed span called `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;
  double total(const std::string& name) const;
  /// Self time per layer, in seconds.
  std::map<std::string, double> layer_self_times() const;
  /// Writes every span as JSON (times relative to the first span).
  void write_json(const std::string& path, const RunConfig& cfg) const;

 private:
  struct Span {
    std::string name;
    std::int64_t id;
    std::size_t parent;  ///< index + 1 of the enclosing span; 0 = root
    double start;
    double end;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of open span indices
};

/// A span on `spans`, or an inert scope when the pass is untraced.
inline Spans::Scope open_span(Spans* spans, std::string name,
                              std::int64_t id = -1) {
  return spans ? spans->open(std::move(name), id) : Spans::Scope(nullptr, 0);
}

/// The metrics one run reports, by name. BENCHMARK.json declares the names
/// and units; run.py attaches the units, fills declared per-layer metrics a
/// workload does not reach with 0, and refuses any undeclared name.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
};

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace ndfbench
