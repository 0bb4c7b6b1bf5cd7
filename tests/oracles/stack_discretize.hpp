// Parity oracle for solver::Discretizer: the explicit-stack
// branch-and-bound the in-place bound-patching search replaced.
//
// Each node owns a CuBounds copy and a fresh RelaxedSolution on an
// explicit LIFO stack: children are solved down-then-up at the parent
// and pushed in that order, so the up child pops first. The patched
// search recurses in exactly this pop order, which is what makes node
// counts, incumbents, provenance and the relaxation-cache hit/miss
// trace bit-identical between the two (differential_fuzz
// --patched-bounds checks it across seeds).
#pragma once

#include "core/problem.hpp"
#include "solver/discretize.hpp"
#include "support/status.hpp"

namespace mfa::oracles {

/// Bisection hint each child node solve starts from.
enum class NodeHints {
  kWarm,  ///< the parent's relaxed ÎI (what Discretizer always does)
  kCold,  ///< none: every node bisects from the cold bracket
};

/// Discretizes `problem` like Discretizer(options).run(problem): the
/// root is solved (through options.cache when set) from a cold bracket,
/// then the stack search runs under options.max_nodes.
[[nodiscard]] StatusOr<solver::DiscretizeResult> stack_discretize(
    const core::Problem& problem, const solver::DiscretizeOptions& options,
    NodeHints hints = NodeHints::kWarm);

}  // namespace mfa::oracles
