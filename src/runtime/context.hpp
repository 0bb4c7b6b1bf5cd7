// The runtime's name for the shared solver context.
//
// The struct lives in core (core/solver_context.hpp) so alloc-layer
// options can carry a pointer to it without depending on runtime; this
// header re-exports it under the runtime namespace, which owns the
// sharing policy: BatchRunner and Portfolio consult
// PortfolioOptions::context / BatchOptions::context as the single
// wiring point for the shared relaxation cache.
#pragma once

#include "core/solver_context.hpp"

namespace mfa::runtime {

using SolverContext = core::SolverContext;

}  // namespace mfa::runtime
