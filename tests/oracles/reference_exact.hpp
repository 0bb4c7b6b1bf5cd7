// Parity oracle for solver::ExactSolver: the exact search as it stood
// before the β > 0 top-down scan.
//
// It runs two stages at every β. Stage 1 binary-searches the candidate
// IIs for the smallest one whose minimal totals pack (a feasibility
// pack per probe). Stage 2, for β > 0, scans upward from there with one
// min-spreading pack per candidate, each started from φ = ∞, and keeps
// a result only when its goal is strictly lower. ExactSolver keeps stage
// 1 for β = 0 and must return the same result there, nodes included.
// For β > 0 it must return the same answer wherever this search proves
// its optimum, and no higher goal where it does not
// (differential_fuzz --exact-parity checks both across seeds).
#pragma once

#include "core/problem.hpp"
#include "solver/exact.hpp"
#include "support/status.hpp"

namespace mfa::oracles {

/// Solves `problem` like solver::ExactSolver(options).solve(problem)
/// did with the two-stage search above.
[[nodiscard]] StatusOr<solver::ExactResult> reference_exact(
    const core::Problem& problem, const solver::ExactOptions& options = {});

}  // namespace mfa::oracles
