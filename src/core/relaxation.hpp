// The symmetric continuous relaxation (paper §3.2.1, eqs. 14–18).
//
// With β = 0 and n_{k,f} ∈ R the per-FPGA structure drops out and only
// the totals N̂_k matter, constrained by the *pooled* platform capacity
// (F·R for F identical FPGAs; Σ_f R_f on a mixed fleet):
//
//   minimize ÎI  s.t.  ÎI ≥ WCET_k/N̂_k,  N̂_k ≥ 1,
//                      Σ_k N̂_k·R_k ≤ Σ_f R_f,  Σ_k N̂_k·B_k ≤ Σ_f B_f.
//
// Two independent solvers are provided:
//  * solve()    — exact bisection on the target ÎI. For a target t the
//                 cheapest feasible choice is N̂_k(t) = max(L_k, WCET_k/t)
//                 and resource use is monotone in t, so feasibility is a
//                 monotone predicate. This is the paper's "GP step" in
//                 closed form, and it accepts per-kernel bounds, which is
//                 what the discretizer's branch-and-bound nodes need.
//  * solve_relaxation_gp() — the same model through the general
//                 gp::GpSolver, as the paper does with GPkit. No production
//                 path calls it: it is the GP-step reference the tests, the
//                 fuzzer and the ablation bench check the bisection against.
#pragma once

#include <vector>

#include "core/problem.hpp"
#include "gp/solver.hpp"
#include "support/fingerprint.hpp"
#include "support/status.hpp"

namespace mfa::core {

/// Per-kernel interval bounds on the *total* CU count N_k, used by the
/// discretizer's branch-and-bound. Defaults to [1, max_cu_total(k)].
struct CuBounds {
  std::vector<double> lower;
  std::vector<double> upper;

  /// Default bounds for a problem: L_k = 1, U_k = F · max-per-FPGA.
  static CuBounds defaults(const Problem& problem);
};

/// Result of the continuous relaxation.
struct RelaxedSolution {
  double ii = 0.0;             ///< optimal relaxed ÎI (ms)
  std::vector<double> n_hat;   ///< N̂_k, the relaxed total CUs per kernel
};

/// Solves the relaxation exactly by bisection. Returns kInfeasible when
/// even N̂_k = L_k violates a pooled resource constraint or L > U.
StatusOr<RelaxedSolution> solve_relaxation(const Problem& problem,
                                           const CuBounds& bounds);

/// Convenience overload with default bounds.
StatusOr<RelaxedSolution> solve_relaxation(const Problem& problem);

/// Warm-started bisection: `ii_hint` — typically a related solve's
/// optimal ÎI, e.g. the parent node's in branch-and-bound — is probed
/// once and, depending on feasibility, replaces one end of the initial
/// bracket. The returned optimum is the same as the cold solve's (to
/// bisection tolerance); only the iteration count changes. A hint
/// outside the bracket is ignored, so any positive value is safe.
StatusOr<RelaxedSolution> solve_relaxation(const Problem& problem,
                                           const CuBounds& bounds,
                                           double ii_hint);

/// Allocation-free flavor of the warm-started bisection: writes the
/// solution into `out`, reusing its n_hat capacity, instead of
/// returning a fresh RelaxedSolution. Bit-identical arithmetic to
/// solve_relaxation(problem, bounds, ii_hint) — same probes, same
/// bits — so results remain interchangeable with cached entries under
/// relaxation_cache_key. On a non-ok status `out` is unspecified. The
/// discretizer's patched-bounds search routes every node solve through
/// this with per-depth pooled solutions, which is what removes the
/// per-node n_hat allocation from branch-and-bound.
Status solve_relaxation_into(const Problem& problem, const CuBounds& bounds,
                             double ii_hint, RelaxedSolution& out);

/// Builds the GP model (14)–(18) for the problem, with bounds folded in
/// as monomial constraints. Variable 0 is ÎI; variable 1+k is N̂_k.
gp::GpProblem build_relaxation_gp(const Problem& problem,
                                  const CuBounds& bounds);

/// Solves the relaxation through the interior-point GP solver (cold
/// start, default bounds) — the paper's GP step; see file comment.
StatusOr<RelaxedSolution> solve_relaxation_gp(
    const Problem& problem, const gp::SolverOptions& options = {});

/// Cache key for a bisection solve of (problem, bounds, ii_hint): hashes
/// every input the result depends on plus an algorithm tag. See
/// core/relax_cache.hpp for the determinism contract this upholds.
Fingerprint relaxation_cache_key(const Problem& problem,
                                 const CuBounds& bounds, double ii_hint);

}  // namespace mfa::core
