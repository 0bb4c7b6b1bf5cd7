// GP+A — the paper's end-to-end heuristic (§3.2).
//
// Pipeline: continuous relaxation (GP) → branch-and-bound discretization
// of N̂_k → greedy allocation (Algorithm 1). The relaxation is solved
// exactly by bisection (core::solve_relaxation); the paper runs the same
// convex program through GPkit, whose role core::solve_relaxation_gp
// keeps as a reference. Each stage's wall-clock time is recorded
// separately so the runtime comparison of §4 ("0.78 s to 4.4 s,
// 100–1000× faster than MINLP") can be reproduced. Those three stages
// are the whole pipeline: re-placing an answer against an incumbent
// under migration budgets is the allocation service's job
// (AllocServer::apply_stability), not a GP+A step.
#pragma once

#include <optional>

#include "alloc/greedy.hpp"
#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "core/relaxation.hpp"
#include "core/solver_context.hpp"
#include "solver/discretize.hpp"
#include "support/status.hpp"

namespace mfa::alloc {

struct GpaOptions {
  /// Warm start for the *root* relaxation, typically a related solve's
  /// (ÎI, N̂). The root bisection probes warm->ii once as a bracket
  /// end. Always safe: a useless seed only costs the probe. Cache keys
  /// fold the seed in, so warm entries never alias cold ones.
  std::optional<core::RelaxedSolution> warm;

  /// Shared solver resources — the single wiring point; see
  /// core/solver_context.hpp. Not owned. The root solve and every
  /// branch-and-bound node go through the context's relaxation cache, a
  /// byte-transparent acceleration.
  const core::SolverContext* context = nullptr;

  solver::DiscretizeOptions discretize;
  GreedyOptions greedy;
};

struct GpaResult {
  core::Allocation allocation;   ///< final feasible placement
  double relaxed_ii = 0.0;       ///< ÎI from the GP step (lower bound)
  std::vector<double> relaxed_n; ///< N̂_k from the GP step (with ÎI: the
                                 ///< warm seed for a neighboring solve)
  double discrete_ii = 0.0;      ///< II after discretization (pre-alloc)
  std::vector<int> totals;       ///< discretized N_k
  double used_fraction = 0.0;    ///< R_c the allocator ended at
  std::int64_t discretize_nodes = 0;

  double seconds_relax = 0.0;
  double seconds_discretize = 0.0;
  double seconds_allocate = 0.0;
  [[nodiscard]] double seconds_total() const {
    return seconds_relax + seconds_discretize + seconds_allocate;
  }
};

class GpaSolver {
 public:
  explicit GpaSolver(GpaOptions options = {}) : options_(options) {}

  /// Runs GP → discretize → allocate. kInfeasible propagates from any
  /// stage (pooled constraints, integrality, or Algorithm 1 within T).
  [[nodiscard]] StatusOr<GpaResult> solve(const core::Problem& problem) const;

 private:
  GpaOptions options_;
};

}  // namespace mfa::alloc
