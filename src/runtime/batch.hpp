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
// Every batch shares one relaxation cache across all its requests and
// portfolio lanes (BatchOptions::context supplies a longer-lived one):
// duplicate and near-duplicate instances (the same grid point under
// several methods, the same root relaxation under several greedy
// deviations) collapse to cache hits. Cache keys capture every solve
// input, so a hit returns exactly the bytes a solve would have produced
// and the bit-for-bit determinism guarantee above holds whichever
// thread populated the cache first.
#pragma once

#include <vector>

#include "core/problem.hpp"
#include "core/solver_context.hpp"
#include "runtime/solve.hpp"

namespace mfa::runtime {

struct BatchOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency.
  int num_threads = 0;
  /// Portfolio applied to every request without its own options.
  PortfolioOptions portfolio;
  /// A longer-lived relaxation cache to use instead of the per-batch
  /// one, so hits survive across solve_all() calls (e.g. successive
  /// sweeps over one design space). The single wiring point; see
  /// core/solver_context.hpp. Not owned.
  const core::SolverContext* context = nullptr;
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
