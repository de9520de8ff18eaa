// Deterministic random number generation for tests, workload generators and
// the randomized work-stealing scheduler. SplitMix64 seeds a xoshiro256**
// state; both are tiny, fast and reproducible across platforms.
#pragma once

#include <cstdint>

namespace ndf {

/// SplitMix64 — used to expand a user seed into generator state.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** generator; satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    advance();
    return result;
  }

  /// Advances the state past `n` draws without producing them: afterwards
  /// the generator is exactly where n calls of operator() would leave it.
  void discard(std::uint64_t n) {
    for (; n > 0; --n) advance();
  }

  /// Uniform in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) { return (*this)() % n; }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

 private:
  void advance() {
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
  }
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

}  // namespace ndf
