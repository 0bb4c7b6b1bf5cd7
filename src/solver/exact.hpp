// Exact solver for the full MINLP (eqs. 5–10).
//
// Plays the role of Couenne in the paper ("MINLP" with β = 0, "MINLP+G"
// with the Table-4 weights), but exploits problem structure instead of
// general spatial branch-and-bound:
//
//  * II only takes the finitely many values WCET_k/m (solver/candidates);
//  * for a fixed target II the cheapest totals are N_k(t) = ⌈WCET_k/t⌉,
//    and raising any N_k above that can only worsen both the packing
//    pressure and the spreading φ (φ_k is increasing in every n_{k,f}),
//    so minimal totals are optimal for each candidate;
//  * feasibility of minimal totals is monotone in t (larger t → fewer
//    CUs → easier packing), so the β = 0 optimum is found by binary
//    search over the candidate list with an exact packing check;
//  * for β > 0 the candidates are scanned in ascending order, each
//    evaluated with a min-spreading exact packing, with the cutoff
//    α·t + β·φ_min ≥ g_best terminating the scan (φ ≥ 1/2 always since
//    N_k ≥ 1, and capacity-forced chunk bounds sharpen the cutoff).
//
// Every result states whether optimality was *proved* within the budget.
#pragma once

#include <cstdint>

#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "solver/budget.hpp"
#include "support/status.hpp"

namespace mfa::solver {

struct ExactOptions {
  std::int64_t max_nodes = 50'000'000;  ///< total packing-node cap
  double max_seconds = 300.0;           ///< wall-clock cap
  /// Optional budget *shared with other solvers* (the runtime portfolio
  /// races several strategies under one deadline). When set, the solver
  /// additionally charges every packing's nodes against it, respects its
  /// remaining node/time allowance, and stops early — keeping its own
  /// incumbent — once the shared budget is exhausted or expire()d. The
  /// pointee must outlive the solve; it is safe to share across threads.
  Budget* shared = nullptr;
};

struct ExactResult {
  core::Allocation allocation;   ///< best allocation found
  double ii = 0.0;               ///< II of that allocation (ms)
  double phi = 0.0;              ///< spreading of that allocation
  double goal = 0.0;             ///< α·II + β·φ
  bool proved_optimal = false;   ///< true iff the search completed
  std::int64_t nodes = 0;        ///< packing nodes expanded
  double seconds = 0.0;          ///< wall-clock time spent
  int candidates_evaluated = 0;  ///< candidate IIs subjected to packing
};

class ExactSolver {
 public:
  explicit ExactSolver(ExactOptions options = {}) : options_(options) {}

  /// Solves the problem with its α/β weights (β = 0 reproduces the
  /// paper's "MINLP" curves; β > 0 reproduces "MINLP+G").
  /// Returns kInfeasible when no allocation satisfies eqs. 8–10, or
  /// kLimit when the budget expired before *any* solution was found.
  [[nodiscard]] StatusOr<ExactResult> solve(
      const core::Problem& problem) const;

 private:
  ExactOptions options_;
};

}  // namespace mfa::solver
