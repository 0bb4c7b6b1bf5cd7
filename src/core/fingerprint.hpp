// Structural fingerprints of allocation-problem instances, used as cache
// keys. The 128-bit Fingerprint primitive itself lives in
// support/fingerprint.hpp (shared with the greedy placement cache's
// keys, alloc/greedy.hpp); this header owns the problem-level hashing.
//
// relaxation_fingerprint() hashes precisely the fields the continuous
// relaxation (core/relaxation) depends on — kernel WCET/resources/
// bandwidth, FPGA count and *effective* caps (per FPGA on heterogeneous
// platforms, so two problems differing only in their device-class
// vector never share entries) — and deliberately excludes
// names, α/β and anything else the relaxed solution cannot depend on, so
// e.g. a β = 0 twin of a problem shares its relaxation cache entries.
#pragma once

#include "core/problem.hpp"
#include "core/resources.hpp"
#include "support/fingerprint.hpp"

namespace mfa::core {

using ::mfa::Fingerprint;

/// Hashes exactly the problem fields the continuous relaxation depends
/// on: per-kernel (WCET, resource vector, bandwidth), the FPGA count and
/// the effective caps — one vector for a homogeneous platform, the full
/// per-FPGA sequence for a mixed one. Names and weights are excluded.
Fingerprint relaxation_fingerprint(const Problem& problem);

struct CuBounds;  // core/relaxation.hpp

/// Folds per-kernel CU bounds into an existing fingerprint (used to key
/// branch-and-bound node relaxations).
void mix_bounds(Fingerprint& fp, const CuBounds& bounds);

}  // namespace mfa::core
