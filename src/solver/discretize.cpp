#include "solver/discretize.hpp"

#include <array>
#include <cmath>
#include <deque>
#include <limits>

namespace mfa::solver {
namespace {

using core::CuBounds;
using core::Problem;
using core::RelaxedSolution;

/// Distance from the nearest integer below which N̂_k counts as integral.
constexpr double kIntegralityTol = 1e-6;

/// Index of the most fractional component, or npos if all are integral.
std::size_t most_fractional(const std::vector<double>& n_hat) {
  std::size_t best = std::string::npos;
  double best_dist = kIntegralityTol;
  for (std::size_t k = 0; k < n_hat.size(); ++k) {
    const double frac = n_hat[k] - std::floor(n_hat[k]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_dist) {
      best_dist = dist;
      best = k;
    }
  }
  return best;
}

/// Node solve: fills `out` (a pooled solution whose n_hat capacity is
/// reused across the search) through the shared cache when configured —
/// lookup, solve of the miss, first-writer-wins insert. The cache key
/// captures (problem, bounds, hint) exactly, so a hit is bit-identical
/// to solving (see core/relax_cache.hpp), and
/// core::solve_relaxation_into is bit-identical to
/// core::solve_relaxation.
Status solve_node_into(const Problem& problem, const CuBounds& bounds,
                       double ii_hint, core::RelaxationCache* cache,
                       RelaxedSolution& out) {
  if (cache == nullptr) {
    return core::solve_relaxation_into(problem, bounds, ii_hint, out);
  }
  const core::Fingerprint key =
      core::relaxation_cache_key(problem, bounds, ii_hint);
  if (auto hit = cache->lookup(key)) {
    if (!hit->is_ok()) return hit->status();
    out = hit->value();  // copy-assign: pooled capacity absorbs it
    return Status::ok();
  }
  const Status solved =
      core::solve_relaxation_into(problem, bounds, ii_hint, out);
  // First-writer-wins: the stored entry is what any thread would have
  // computed, so keeping our own copy stays deterministic.
  cache->insert(key, solved.is_ok() ? core::CachedRelaxation(out)
                                    : core::CachedRelaxation(solved));
  return solved;
}

/// The branch-and-bound: one shared CuBounds patched/restored around
/// each subtree, per-depth pooled child solutions, and a recursion that
/// solves both children at the parent (down then up) and explores up's
/// subtree first. The node counter increments at visit entry, and an
/// exhausted node budget aborts every not-yet-visited frame — the
/// explicit-stack oracle's pop order and abort point exactly
/// (differential_fuzz --patched-bounds).
struct PatchedSearch {
  const Problem& problem;
  const DiscretizeOptions& options;
  CuBounds bounds;  ///< THE bounds: patched in place, restored on return

  double best_ii = std::numeric_limits<double>::infinity();
  std::vector<int> best_totals{};
  std::int64_t nodes = 0;
  bool aborted = false;

  /// pool[d] holds the down/up solutions solved at depth d — alive for
  /// the whole subtree below them, reused (capacity and all) by every
  /// other branch that reaches depth d. A deque, not a vector: deeper
  /// recursions append while shallower frames hold references.
  std::deque<std::array<RelaxedSolution, 2>> pool{};

  void visit(const RelaxedSolution& relax, std::size_t depth) {
    if (aborted) return;  // a deeper frame exhausted the node budget
    if (nodes >= options.max_nodes) {
      aborted = true;
      return;
    }
    ++nodes;

    // Prune: the node relaxation bounds every integer solution below it.
    if (relax.ii >= best_ii * (1.0 - 1e-12)) return;

    const std::size_t k = most_fractional(relax.n_hat);
    if (k == std::string::npos) {
      // Integral node: a candidate totals vector.
      std::vector<int> totals(problem.num_kernels());
      double ii = 0.0;
      for (std::size_t j = 0; j < totals.size(); ++j) {
        totals[j] = static_cast<int>(std::llround(relax.n_hat[j]));
        MFA_ASSERT(totals[j] >= 1);
        ii = std::max(ii, problem.app.kernels[j].wcet_ms / totals[j]);
      }
      if (ii < best_ii) {
        best_ii = ii;
        best_totals = std::move(totals);
      }
      return;
    }

    // Branch: N_k ≤ ⌊N̂_k⌋ and N_k ≥ ⌈N̂_k⌉ (paper §3.2.2). Both children
    // are warm-started from this node's ÎI: tightening a bound can only
    // raise the relaxed optimum, so the parent value brackets the child
    // bisection from below.
    const double floor_v = std::floor(relax.n_hat[k]);
    const double ceil_v = std::ceil(relax.n_hat[k]);
    const double hint = relax.ii;
    if (pool.size() <= depth) pool.resize(depth + 1);
    std::array<RelaxedSolution, 2>& kids = pool[depth];

    const double saved_upper = bounds.upper[k];
    const double saved_lower = bounds.lower[k];
    bounds.upper[k] = std::min(saved_upper, floor_v);
    const bool down_ok =
        solve_node_into(problem, bounds, hint, options.cache, kids[0])
            .is_ok();
    bounds.upper[k] = saved_upper;
    bounds.lower[k] = std::max(saved_lower, ceil_v);
    const bool up_ok =
        solve_node_into(problem, bounds, hint, options.cache, kids[1])
            .is_ok();

    // Descend up-first (more CUs → lower II incumbent sooner, which
    // sharpens pruning), re-applying each child's single-bound patch
    // around its subtree. `relax` may alias a shallower pool row but is
    // dead past this point.
    if (up_ok) visit(kids[1], depth + 1);
    bounds.lower[k] = saved_lower;
    if (down_ok) {
      bounds.upper[k] = std::min(saved_upper, floor_v);
      visit(kids[0], depth + 1);
      bounds.upper[k] = saved_upper;
    }
  }
};

}  // namespace

StatusOr<DiscretizeResult> Discretizer::run(const Problem& problem) const {
  RelaxedSolution root;
  if (Status s = solve_node_into(problem, CuBounds::defaults(problem), 0.0,
                                 options_.cache, root);
      !s.is_ok()) {
    return s;
  }
  return run(problem, root);
}

StatusOr<DiscretizeResult> Discretizer::run(const Problem& problem,
                                            const RelaxedSolution& root) const {
  MFA_ASSERT(root.n_hat.size() == problem.num_kernels());

  PatchedSearch search{problem, options_, CuBounds::defaults(problem)};
  search.visit(root, 0);

  DiscretizeResult result;
  result.relaxed_ii = root.ii;
  result.nodes = search.nodes;
  result.proved_optimal = !search.aborted;
  if (search.best_totals.empty()) {
    if (search.aborted) {
      return Status{Code::kLimit,
                    "node cap reached before an integral solution"};
    }
    return Status{Code::kInfeasible, "no integral totals satisfy the "
                                     "pooled resource constraints"};
  }
  result.totals = std::move(search.best_totals);
  result.ii = search.best_ii;
  return result;
}

}  // namespace mfa::solver
