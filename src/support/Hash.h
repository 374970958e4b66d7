// Hash.h - stable 64-bit content hashing (FNV-1a).
//
// Used by the stage cache in src/flow and by the uniquing maps in the IR
// contexts. FNV-1a is deliberately simple: the values are process-local
// cache keys and hash-map buckets, never persisted across runs or
// machines, so we prefer a dependency-free, branch-free loop over a
// cryptographic hash. Collisions on 64 bits are vanishingly unlikely for
// the corpus sizes involved (tens of kernels, hundreds of DSE points).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace mha {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over a byte range, continuing from `seed`.
inline uint64_t hashBytes(const void *data, size_t size,
                          uint64_t seed = kFnvOffsetBasis) {
  const unsigned char *p = static_cast<const unsigned char *>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

inline uint64_t hashString(std::string_view s,
                           uint64_t seed = kFnvOffsetBasis) {
  return hashBytes(s.data(), s.size(), seed);
}

/// Incremental builder for composite keys. Each mix* call feeds the raw
/// bytes of its argument; `str` also feeds the length so that ("ab","c")
/// and ("a","bc") hash differently.
class HashBuilder {
public:
  HashBuilder() = default;
  /// Resumes a stream whose state so far `get()` returned: feeding the
  /// rest of the bytes gives the same hash as one builder fed them all.
  explicit HashBuilder(uint64_t state) : hash_(state) {}

  HashBuilder &bytes(const void *data, size_t size) {
    hash_ = hashBytes(data, size, hash_);
    return *this;
  }

  HashBuilder &u64(uint64_t v) { return bytes(&v, sizeof(v)); }
  HashBuilder &i64(int64_t v) { return bytes(&v, sizeof(v)); }
  HashBuilder &u32(uint32_t v) { return bytes(&v, sizeof(v)); }
  HashBuilder &boolean(bool v) { return u32(v ? 1u : 0u); }

  /// Hashes the bit pattern, so +0.0 / -0.0 and distinct NaNs stay
  /// distinct — required for float-constant uniquing keys.
  HashBuilder &f64Bits(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return u64(bits);
  }

  HashBuilder &str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  HashBuilder &pointer(const void *p) {
    return u64(reinterpret_cast<uintptr_t>(p));
  }

  uint64_t get() const { return hash_; }

private:
  uint64_t hash_ = kFnvOffsetBasis;
};

} // namespace mha
