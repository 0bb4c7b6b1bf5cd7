// Parallel resource-constraint sweeps — the Fig. 2–5 experiment driver,
// re-expressed on the runtime batch engine.
//
// Fans every (method × constraint) grid point through BatchRunner as an
// independent SolveRequest, so a whole figure is one batch, the pool
// stays saturated across methods, and the batch's shared relaxation
// cache collapses duplicate grid points. Its parity oracle, a sequential
// point-by-point driver, is tests/oracles/sweep.hpp. Point
// semantics are preserved: proved_optimal carries the SolveResult's real
// provenance (true only when an exact search completed — GP+A points
// are heuristic and never claim a proof), and kMinlp forces β = 0 per
// point.
#pragma once

#include <vector>

#include "alloc/sweep.hpp"
#include "core/problem.hpp"
#include "runtime/batch.hpp"

namespace mfa::runtime {

struct SweepOptions {
  /// Worker threads for the underlying BatchRunner (0 = hardware).
  int num_threads = 0;
  alloc::SweepConfig config;
};

/// One method over the configured constraint range, in parallel.
alloc::SweepSeries run_sweep(const core::Problem& problem,
                             alloc::Method method,
                             const SweepOptions& options);

/// Several methods over the same range as one batch (one figure).
/// Returned series align with `methods`.
std::vector<alloc::SweepSeries> run_sweeps(
    const core::Problem& problem, const std::vector<alloc::Method>& methods,
    const SweepOptions& options);

}  // namespace mfa::runtime
