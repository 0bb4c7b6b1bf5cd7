// The runtime's unified solve API (request in, provenance-rich result out).
//
// Every solving path in the library — GP+A (Algorithm 1) at one or more
// greedy deviations T, the structured exact MINLP search, and the naive
// branch-and-bound baseline — is expressed as a portfolio *lane*. A
// SolveRequest owns its Problem (shared_ptr, because core::Allocation
// references the Problem it was built for) so results remain valid after
// the caller's inputs go away; the winning lane's allocation is always
// re-scored against the request's own α/β, making goals comparable
// across lanes regardless of what each solver optimized internally.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "alloc/gpa.hpp"
#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "core/relaxation.hpp"
#include "core/solver_context.hpp"
#include "solver/exact.hpp"
#include "support/status.hpp"

namespace mfa::runtime {

/// One lane of a portfolio: a concrete strategy configuration.
struct StrategySpec {
  enum class Kind {
    kGpa,    ///< GP relaxation + discretization + Algorithm 1
    kExact,  ///< structured exact search (solver::ExactSolver)
    kNaive,  ///< naive B&B over n_{k,f} (solver::NaiveMinlp)
  };

  Kind kind = Kind::kGpa;
  /// Greedy deviation T for kGpa lanes (ignored otherwise).
  double t_max = 0.0;

  [[nodiscard]] std::string name() const;

  static StrategySpec gpa(double t_max) {
    return StrategySpec{Kind::kGpa, t_max};
  }
  static StrategySpec exact() { return StrategySpec{Kind::kExact, 0.0}; }
  static StrategySpec naive() { return StrategySpec{Kind::kNaive, 0.0}; }
};

/// How a portfolio attacks one instance: which lanes, under what shared
/// budget, with what per-solver knobs.
struct PortfolioOptions {
  /// One kGpa lane per entry (Fig. 2 shows II vs T is not monotone, so
  /// racing a few deviations is cheap insurance).
  std::vector<double> gpa_t_max = {0.0, 0.05, 0.10};
  bool run_exact = true;
  bool run_naive = false;

  /// Shared node/wall-clock budget across *all* exact/naive lanes (GP+A
  /// lanes are effectively instant and run unbudgeted). Once a lane
  /// proves optimality on the true objective, the portfolio expire()s
  /// this budget so still-running lanes stop at their incumbents.
  std::int64_t max_nodes = 50'000'000;
  double max_seconds = 60.0;

  /// Shared solver resources (see core/solver_context.hpp). Every lane
  /// solves the identical root relaxation and walks the identical
  /// discretization tree, so with the context's relaxation cache the
  /// work is done once and reused; keys capture every solve input, so
  /// hits are bit-identical to solving and determinism across thread
  /// counts is preserved. Not owned; when it carries a cache, it
  /// overrides `gpa.context`.
  const core::SolverContext* context = nullptr;

  alloc::GpaOptions gpa;       ///< base GP+A knobs (t_max set per lane)
  solver::ExactOptions exact;  ///< exact-lane knobs (budget overridden)

  [[nodiscard]] std::vector<StrategySpec> lanes() const;
};

/// One instance to solve. The Problem is owned (see file comment).
struct SolveRequest {
  std::shared_ptr<const core::Problem> problem;
  /// Overrides the batch-level portfolio configuration when set.
  std::optional<PortfolioOptions> options;
  /// Warm start for the GP+A lanes' root relaxation, typically the
  /// `relaxed` result of a closely related solve. Exact/naive lanes
  /// ignore it. Always safe: a stale seed only costs
  /// one feasibility probe, never correctness — the root solver
  /// converges to the same optimum and cache keys fold the seed in.
  std::optional<core::RelaxedSolution> warm;

  static SolveRequest of(core::Problem problem) {
    SolveRequest r;
    r.problem =
        std::make_shared<const core::Problem>(std::move(problem));
    return r;
  }
};

/// Per-lane provenance: what each strategy achieved, at what cost.
struct StrategyOutcome {
  std::string strategy;  ///< e.g. "gpa(T=0.05)", "exact", "naive"
  Status status;         ///< ok / kInfeasible / kLimit
  bool proved_optimal = false;
  double ii = std::numeric_limits<double>::infinity();
  double phi = std::numeric_limits<double>::infinity();
  /// α·II + β·φ under the *request's* weights (∞ when no allocation).
  double goal = std::numeric_limits<double>::infinity();
  std::int64_t nodes = 0;
  double seconds = 0.0;
};

/// The portfolio's answer for one instance.
struct SolveResult {
  /// ok iff some lane produced a feasible allocation. kInfeasible when a
  /// lane *proved* infeasibility; kLimit when every lane hit the budget.
  Status status;
  std::shared_ptr<const core::Problem> problem;
  /// Winning allocation, re-bound to `problem` (valid as long as this
  /// result — or any copy of `problem` — lives).
  std::optional<core::Allocation> allocation;
  double ii = 0.0;
  double phi = 0.0;
  double goal = 0.0;
  /// True when an exact lane on the true objective completed its search.
  bool proved_optimal = false;
  /// Root relaxation (ÎI, N̂) of the winning lane, when it was a GP+A
  /// lane — the seed an online caller passes back as the next related
  /// request's `warm` (exact/naive winners leave it empty).
  std::optional<core::RelaxedSolution> relaxed;
  std::string winner;       ///< name of the winning lane
  std::int64_t nodes = 0;   ///< Σ nodes across lanes
  double seconds = 0.0;     ///< wall time of the whole portfolio call
  std::vector<StrategyOutcome> lanes;  ///< in deterministic lane order

  [[nodiscard]] bool is_ok() const { return status.is_ok(); }
};

/// Rebuilds `allocation` against `problem` (same shape required). Used to
/// detach a solver's allocation from the temporary Problem it ran on.
core::Allocation rebind(const core::Allocation& allocation,
                        const core::Problem& problem);

}  // namespace mfa::runtime
