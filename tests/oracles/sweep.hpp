// Parity oracle for runtime::run_sweep: the sequential sweep driver the
// batch sweep replaced.
//
// Runs one method point by point on the calling thread, calling
// alloc::GpaSolver or solver::ExactSolver directly, with no portfolio,
// thread pool or relaxation cache in between. runtime::run_sweep must
// produce the same series (RuntimeSweep.MatchesSingleThreadedAllocSweep).
#pragma once

#include "alloc/sweep.hpp"
#include "core/problem.hpp"

namespace mfa::oracles {

/// Runs `method` at every constraint in the config. The problem's
/// resource_fraction is overridden point by point; α/β are taken from
/// `problem` for kGpa/kMinlpG and forced to β = 0 for kMinlp.
alloc::SweepSeries run_sweep(const core::Problem& problem,
                             alloc::Method method,
                             const alloc::SweepConfig& config);

}  // namespace mfa::oracles
