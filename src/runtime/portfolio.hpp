// Solver portfolio: race every configured strategy on one instance.
//
// The lanes (GP+A at several greedy deviations T, the structured exact
// search, optionally the naive B&B) attack the same Problem concurrently
// on a thread pool, sharing one solver::Budget-derived deadline. The
// GP+A lanes differ only in Algorithm 1, so GP+A's relaxation and
// discretization run once, before the lanes fan out. The
// exact lanes charge their packing nodes against the shared budget and
// poll it between packings, so the first lane to *prove* optimality on
// the true objective can expire() the budget and stop the others at
// their incumbents. The returned SolveResult carries the best
// α·II + β·φ incumbent plus full per-lane provenance.
//
// Determinism: the winner is chosen by (goal, lane index), never by
// completion time, so with node-only budgets the result is identical
// whether lanes run sequentially or in parallel.
#pragma once

#include <memory>

#include "runtime/solve.hpp"
#include "runtime/thread_pool.hpp"

namespace mfa::runtime {

class Portfolio {
 public:
  /// `num_threads` controls how lanes race: 1 runs them sequentially in
  /// lane order (fully deterministic, what BatchRunner uses), 0 sizes a
  /// private pool to min(#lanes, hardware threads), n > 1 uses n workers.
  explicit Portfolio(PortfolioOptions options = {}, int num_threads = 0);

  ~Portfolio();

  Portfolio(const Portfolio&) = delete;
  Portfolio& operator=(const Portfolio&) = delete;

  /// Solves one instance with this portfolio's options (the problem is
  /// copied into the result so the reference may die immediately after).
  [[nodiscard]] SolveResult solve(const core::Problem& problem) const;

  /// As above without a copy when the caller already shares ownership.
  [[nodiscard]] SolveResult solve(
      std::shared_ptr<const core::Problem> problem) const;

  /// Honors request.options when set, else this portfolio's options.
  [[nodiscard]] SolveResult solve(const SolveRequest& request) const;

 private:
  PortfolioOptions options_;
  std::unique_ptr<ThreadPool> pool_;  ///< null → sequential lanes
};

}  // namespace mfa::runtime
