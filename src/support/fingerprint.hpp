// 128-bit rolling fingerprints, the cache-key primitive of the library.
//
// A Fingerprint is two independently mixed 64-bit lanes over the exact
// bit patterns of the numbers that determine a computation's result.
// Collisions would silently alias two different computations (a cached
// relaxation, a cached placement), so the lanes use unrelated mixing
// functions: both would have to collide simultaneously for a false cache
// hit, which is negligible at any realistic cache population.
//
// Domain-specific hashing lives with the domains: core/fingerprint.hpp
// fingerprints allocation problems. This header owns only the
// primitive.
#pragma once

#include <cstdint>
#include <cstring>

namespace mfa {

struct Fingerprint {
  std::uint64_t hi = 0x9e3779b97f4a7c15ull;
  std::uint64_t lo = 0xcbf29ce484222325ull;  // FNV-1a offset basis

  void mix(std::uint64_t v) {
    // Lane lo: FNV-1a on 64-bit words. Lane hi: xor-rotate-multiply with
    // a golden-ratio pre-scramble (splitmix-style), independent of lo.
    lo = (lo ^ v) * 0x00000100000001b3ull;  // FNV prime
    std::uint64_t x = v * 0x9e3779b97f4a7c15ull;
    x ^= x >> 29;
    hi = (hi ^ x) * 0xbf58476d1ce4e5b9ull;
    hi ^= hi >> 32;
  }

  void mix(double d) {
    if (d == 0.0) d = 0.0;  // canonicalize -0.0
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) {
    return !(a == b);
  }
};

}  // namespace mfa
