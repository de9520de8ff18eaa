#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>

namespace ndfbench {

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "check failed: " << what << "\n";
  }
}

std::uint64_t fnv1a(std::string_view s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

double Spans::Scope::close() {
  if (owner_ == nullptr) return 0.0;
  Span& s = owner_->spans_[index_];
  s.end = now_s();
  // Spans close innermost first; the scope being closed is the top.
  owner_->open_.pop_back();
  owner_ = nullptr;
  return s.end - s.start;
}

Spans::Scope Spans::open(std::string name, std::int64_t id) {
  const std::size_t parent = open_.empty() ? 0 : open_.back() + 1;
  spans_.push_back({std::move(name), id, parent, now_s(), 0.0});
  open_.push_back(spans_.size() - 1);
  return Scope(this, spans_.size() - 1);
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.end - s.start);
  return out;
}

double Spans::total(const std::string& name) const {
  double t = 0.0;
  for (double d : durations(name)) t += d;
  return t;
}

std::map<std::string, double> Spans::layer_self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  for (const Span& s : spans_)
    if (s.parent != 0) self[s.parent - 1] -= s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name.substr(0, spans_[i].name.find('.'))] += self[i];
  return out;
}

void Spans::write_json(const std::string& path, const RunConfig& cfg) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  os << "{\"workload\": ";
  json_string(os, cfg.workload);
  os << ", \"seed\": " << cfg.seed << ", \"spans\": [\n";
  os.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"span\": " << i + 1 << ", \"parent\": " << s.parent
       << ", \"name\": ";
    json_string(os, s.name);
    os << ", \"id\": " << s.id << ", \"start_s\": " << s.start - t0
       << ", \"end_s\": " << s.end - t0 << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

}  // namespace ndfbench
