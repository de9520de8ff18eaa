#include "host_speed.hpp"

#include <atomic>
#include <cstdint>
#include <queue>
#include <thread>
#include <utility>

#include "harness.hpp"

namespace ndfbench {

namespace {

std::uint64_t next_random(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One chunk of the reference work: an event loop on a binary heap of 4096
/// events, like the simulator's ready queues. Its speed drifts with the
/// host's as the simulator's does (on the host the bounds were set on, a
/// pure arithmetic loop barely drifted, and a random walk over an 8 MB
/// table drifted half as much again). Fixed inputs, so a chunk always does
/// the same work; returns a value that depends on all of it.
std::uint64_t reference_chunk(std::uint64_t chunk) {
  std::priority_queue<std::pair<double, std::uint32_t>> events;
  std::uint64_t state = chunk;
  for (std::uint32_t i = 0; i < 4096; ++i)
    events.emplace(double(next_random(state) % 100000), i);
  std::uint64_t sum = 0;
  for (int step = 0; step < 20000; ++step) {
    const auto [time, id] = events.top();
    events.pop();
    const std::uint64_t r = next_random(state);
    sum += r ^ id;
    events.emplace(time - double(r & 1023) - 1.0, id);
  }
  return sum;
}

/// Chunks per thread in one pass.
constexpr std::uint64_t kChunksPerThread = 30;

}  // namespace

HostSpeed::HostSpeed(std::size_t threads) : threads_(threads ? threads : 1) {
  passes_.push_back(pass());
}

double HostSpeed::to_nominal() {
  passes_.push_back(pass());
  const std::size_t n = passes_.size();
  return kNominalPassS / (0.5 * (passes_[n - 2] + passes_[n - 1]));
}

double HostSpeed::pass() const {
  // The threads take chunks from one counter until all are done, so a
  // pass measures what the host's threads get through together, as the
  // work-stealing executor does, not its slowest thread.
  // Each thread adds its chunks' results to `sum`, so no chunk's work can
  // be left out.
  std::atomic<std::uint64_t> next{0}, sum{0};
  const std::uint64_t chunks = kChunksPerThread * threads_;
  const auto work = [&] {
    std::uint64_t own = 0;
    for (std::uint64_t c; (c = next.fetch_add(1)) < chunks;)
      own += reference_chunk(c);
    sum += own;
  };
  const double t0 = now_s();
  std::vector<std::thread> helpers;
  for (std::size_t i = 1; i < threads_; ++i) helpers.emplace_back(work);
  work();
  for (std::thread& t : helpers) t.join();
  return now_s() - t0;
}

}  // namespace ndfbench
