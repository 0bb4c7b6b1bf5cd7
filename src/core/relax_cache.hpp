// Thread-safe memoization cache for continuous-relaxation solves.
//
// Repeated solves of one instance (a sweep run again over the same
// design space) re-solve *identical* relaxation subproblems: the same
// root relaxation and the same branch-and-bound tree. The cache memoizes
// those solves by a 128-bit fingerprint of everything the result
// depends on (problem, bounds, warm-start hint, algorithm tag — see
// core/fingerprint.hpp). Nothing on a default path builds one: a
// portfolio solve runs its GP+A stages once for all its T lanes, and
// BatchRunner uses a cache only when the caller passes one.
//
// Both feasible solutions and infeasibility proofs are cached (branch-
// and-bound prunes through infeasible nodes constantly).
//
// The cache machinery itself — sharding, FIFO bounding, first-writer-
// wins insertion, the determinism contract — is the generic
// core::ShardedCache (core/sharded_cache.hpp), shared with the greedy
// placement cache. A lookup hit returns exactly what the thread
// would have computed itself, which is how BatchRunner stays bit-for-bit
// identical across thread counts when the threads share a caller's
// cache. The default configuration is one unbounded shard.
#pragma once

#include "core/relaxation.hpp"
#include "core/sharded_cache.hpp"
#include "support/status.hpp"

namespace mfa::core {

/// One cached relaxation outcome: a solution or the status that denied it.
using CachedRelaxation = StatusOr<RelaxedSolution>;

/// Sharding / bounding knobs; the defaults reproduce the original
/// single-shard unbounded cache bit-for-bit.
using RelaxCacheConfig = CacheConfig;

using RelaxationCache = ShardedCache<CachedRelaxation>;

}  // namespace mfa::core
