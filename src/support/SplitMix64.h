// SplitMix64.h - the deterministic, platform-independent PRNG.
//
// std::uniform_int_distribution and std::shuffle are
// implementation-defined, so anything that must replay bit-identically
// across machines (seeded DSE strategies, fuzz program generation, fuzz
// campaign seeds) draws from splitmix64 instead.
#pragma once

#include <cstdint>

namespace mha {

class SplitMix64 {
public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound) with rejection (bound is tiny vs 2^64, so the
  /// modulo bias would be negligible, but rejection keeps it exact).
  uint64_t below(uint64_t bound) {
    uint64_t limit = bound * (UINT64_MAX / bound);
    uint64_t value;
    do {
      value = next();
    } while (value >= limit);
    return value % bound;
  }

  /// One splitmix64 round of `x`: the first draw of a generator seeded
  /// with it.
  static uint64_t mix(uint64_t x) { return SplitMix64(x).next(); }

private:
  uint64_t state_;
};

} // namespace mha
