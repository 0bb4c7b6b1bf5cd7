// Shared solver context: one wiring point for cross-solve resources.
//
// A SolverContext carries what one solve stack shares across lanes and
// requests: the relaxation memoization cache (core/relax_cache.hpp). It
// is a non-owning pointer and optional; a default SolverContext is
// equivalent to no context at all. The context itself is passed by
// pointer (`const SolverContext*`) through GpaOptions, PortfolioOptions
// and BatchOptions, so adding a shared resource means adding one field
// here rather than one to every options struct.
//
// The struct lives in core (not runtime) so alloc-layer options can
// carry it without a layering inversion; the runtime's batch and
// portfolio options point at the same core::SolverContext.
#pragma once

#include "core/relax_cache.hpp"

namespace mfa::core {

struct SolverContext {
  /// Relaxation memoization shared across lanes/requests. Not owned.
  RelaxationCache* relax_cache = nullptr;
};

}  // namespace mfa::core
