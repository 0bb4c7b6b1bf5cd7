// Batch engine: fan a whole design-space sweep across the thread pool.
//
// solve_all() solves every instance with the configured portfolio and
// returns results in *input order* regardless of the thread count — each
// worker writes into its pre-assigned slot, and within one instance the
// portfolio lanes run sequentially (Portfolio num_threads = 1), so with
// node-only budgets the output is bit-for-bit identical for 1 and N
// threads. Parallelism therefore comes purely from solving different
// instances concurrently, which is the shape of the Fig. 3–5 grids.
//
// By default every batch shares one RelaxationCache across all its
// requests and portfolio lanes: duplicate and near-duplicate instances
// (the same grid point under several methods, the same root relaxation
// under several greedy deviations) collapse to cache hits. Cache keys
// capture every solve input, so a hit returns exactly the bytes a solve
// would have produced and the bit-for-bit determinism guarantee above
// holds with the cache enabled, whichever thread populated it first.
#pragma once

#include <vector>

#include "core/problem.hpp"
#include "runtime/context.hpp"
#include "runtime/relax_cache.hpp"
#include "runtime/solve.hpp"

namespace mfa::runtime {

struct BatchOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency.
  int num_threads = 0;
  /// Portfolio applied to every request without its own options.
  PortfolioOptions portfolio;
  /// Share one relaxation cache across the whole batch (see file
  /// comment). Disable to reproduce PR-1 cold-solve behavior.
  bool share_relaxations = true;
  /// A longer-lived relaxation cache to use instead of the per-batch
  /// one, so hits survive across solve_all() calls (e.g. successive
  /// sweeps over one design space). The single wiring point; see
  /// core/solver_context.hpp. Not owned; implies sharing when its cache
  /// is set.
  const SolverContext* context = nullptr;
  /// Migration-aware re-solve applied to every request without its own
  /// options (next to the caches, same wiring rules): forwarded into
  /// `portfolio.stability` when that is unset. Not owned.
  const solver::StabilityOptions* stability = nullptr;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {})
      : options_(std::move(options)) {}

  /// Solves all requests; result[i] answers requests[i].
  [[nodiscard]] std::vector<SolveResult> solve_all(
      const std::vector<SolveRequest>& requests) const;

  /// Convenience: copies each problem into a request first.
  [[nodiscard]] std::vector<SolveResult> solve_all(
      const std::vector<core::Problem>& problems) const;

 private:
  BatchOptions options_;
};

}  // namespace mfa::runtime
