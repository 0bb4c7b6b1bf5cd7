// Branch-and-bound discretization of the relaxed CU counts
// (paper §3.2.2, first half).
//
// The GP step yields fractional totals N̂_k. Integrality is enforced the
// way the paper describes: branch on a fractional N̂_k into the two
// subproblems N_k ≤ ⌊N̂_k⌋ and N_k ≥ ⌈N̂_k⌉, re-solve the (bounded)
// relaxation at each node, and prune nodes whose relaxed ÎI already
// meets or exceeds the best integer ÎI found. The node relaxation is the
// exact bisection solver, so nodes cost microseconds; the number of
// branched variables is |K|, not |K|·F as in the raw MINLP.
//
// The search patches the branched variable's bounds in place on one
// shared CuBounds and reuses per-depth pooled node solutions, so a node
// allocates nothing. Each child bisection is warm-started from its
// parent's ÎI, and an N̂_k within 1e-6 of an integer counts as integral.
// tests/oracles/stack_discretize.hpp holds the parity oracle, an
// explicit-stack search that must visit the same nodes in the same order.
#pragma once

#include <cstdint>
#include <vector>

#include "core/problem.hpp"
#include "core/relax_cache.hpp"
#include "core/relaxation.hpp"
#include "support/status.hpp"

namespace mfa::solver {

struct DiscretizeResult {
  std::vector<int> totals;     ///< integral N_k
  double relaxed_ii = 0.0;     ///< root relaxation ÎI (lower bound)
  double ii = 0.0;             ///< max_k WCET_k / N_k of the totals
  std::int64_t nodes = 0;      ///< B&B nodes expanded
  bool proved_optimal = false; ///< search completed within the node cap
};

struct DiscretizeOptions {
  std::int64_t max_nodes = 1'000'000;
  /// Optional shared memoization of node relaxations, keyed by problem
  /// fingerprint × bounds × warm hint (core/relax_cache.hpp). Repeated
  /// instances walk identical trees, so a long-lived cache collapses
  /// their node solves to lookups. Not owned; may be used from several
  /// threads concurrently.
  core::RelaxationCache* cache = nullptr;
};

/// Discretizes the relaxation of `problem`. An externally computed root
/// relaxation may be supplied (GP+A passes its memoized, warm-started
/// root) so the pipeline matches the paper's GP→discretize flow;
/// otherwise the root is solved internally by bisection.
class Discretizer {
 public:
  explicit Discretizer(DiscretizeOptions options = {}) : options_(options) {}

  [[nodiscard]] StatusOr<DiscretizeResult> run(
      const core::Problem& problem) const;

  [[nodiscard]] StatusOr<DiscretizeResult> run(
      const core::Problem& problem,
      const core::RelaxedSolution& root) const;

 private:
  DiscretizeOptions options_;
};

}  // namespace mfa::solver
