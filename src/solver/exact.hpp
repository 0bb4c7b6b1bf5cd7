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
//  * minimal totals only grow as t falls, so feasibility is monotone in
//    t (larger t → fewer CUs → easier packing). For β = 0 the optimum is
//    the smallest feasible candidate, found by binary search over the
//    candidate list with one feasibility pack per probe;
//  * for β > 0 one scan walks the candidates from the top one (every
//    N_k = 1; its placement is the first incumbent) downwards. With g
//    the incumbent's goal, a placement at candidate t ties or beats it
//    when φ ≤ (g − α·t)/β; the scan's cutoff is that φ plus a few of the
//    packing search's pruning tolerances, so that a placement with an
//    equal goal is still found. A candidate whose capacity-forced chunk
//    bound φ_lb(t) (solver/packing.hpp) reaches the cutoff gets no pack:
//    its bound α·t + β·φ_lb(t) exceeds g. Any other gets one
//    min-spreading pack started from the cutoff, and its placement
//    becomes the incumbent when its goal is ≤ g, so of two equal goals
//    the smaller t wins. The scan stops at the first t where either
//      - its minimal totals fail the pooled-capacity test, or
//      - its pack finds no placement under a cutoff that no placement
//        could reach: every placement has φ ≤ max_k N_k/2 (each
//        n/(1+n) ≤ n/2), so a cutoff above that, pruning tolerance
//        included, made the pack a pure feasibility question.
//    Either fact holds for every smaller t too, whose minimal totals are
//    componentwise at least as large, so no placement exists below. A
//    pack that stops at its node cap without a placement proves
//    neither: it leaves the result unproved and the scan goes on. When
//    such a pack had an out-of-reach cutoff and no placement was found
//    at the candidate just above t, a feasibility pack runs there; if it
//    proves that candidate infeasible, which decides t and everything
//    below, the scan stops and the capped pack no longer counts against
//    the proof.
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
  core::Allocation allocation;  ///< best allocation found
  double ii = 0.0;              ///< II of that allocation (ms)
  double phi = 0.0;             ///< spreading of that allocation
  double goal = 0.0;            ///< α·II + β·φ
  bool proved_optimal = false;  ///< true iff the search completed
  std::int64_t nodes = 0;       ///< packing nodes expanded
  double seconds = 0.0;         ///< wall-clock time spent
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
