#include "oracles/stack_discretize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/relax_cache.hpp"
#include "core/relaxation.hpp"

namespace mfa::oracles {
namespace {

using core::CuBounds;
using core::Problem;
using core::RelaxedSolution;

/// Distance from the nearest integer below which N̂_k counts as integral
/// (the same tolerance Discretizer uses).
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

/// Solves one node relaxation, through the shared cache when configured.
StatusOr<RelaxedSolution> solve_node(const Problem& problem,
                                     const CuBounds& bounds, double ii_hint,
                                     core::RelaxationCache* cache) {
  if (cache == nullptr) {
    return core::solve_relaxation(problem, bounds, ii_hint);
  }
  auto entry = cache->get_or_solve(
      core::relaxation_cache_key(problem, bounds, ii_hint), [&] {
        return core::solve_relaxation(problem, bounds, ii_hint);
      });
  return *entry;
}

}  // namespace

StatusOr<solver::DiscretizeResult> stack_discretize(
    const Problem& problem, const solver::DiscretizeOptions& options,
    NodeHints hints) {
  auto root =
      solve_node(problem, CuBounds::defaults(problem), 0.0, options.cache);
  if (!root.is_ok()) return root.status();

  solver::DiscretizeResult result;
  result.relaxed_ii = root.value().ii;

  double best_ii = std::numeric_limits<double>::infinity();
  std::vector<int> best_totals;
  std::int64_t nodes = 0;
  bool aborted = false;

  struct Node {
    CuBounds bounds;
    RelaxedSolution relax;
  };
  std::vector<Node> stack;
  stack.push_back({CuBounds::defaults(problem), std::move(root.value())});

  while (!stack.empty()) {
    if (nodes >= options.max_nodes) {
      aborted = true;
      break;
    }
    ++nodes;
    Node node = std::move(stack.back());
    stack.pop_back();

    // Prune: the node relaxation bounds every integer solution below it.
    if (node.relax.ii >= best_ii * (1.0 - 1e-12)) continue;

    const std::size_t k = most_fractional(node.relax.n_hat);
    if (k == std::string::npos) {
      // Integral node: a candidate totals vector.
      std::vector<int> totals(problem.num_kernels());
      double ii = 0.0;
      for (std::size_t j = 0; j < totals.size(); ++j) {
        totals[j] = static_cast<int>(std::llround(node.relax.n_hat[j]));
        MFA_ASSERT(totals[j] >= 1);
        ii = std::max(ii, problem.app.kernels[j].wcet_ms / totals[j]);
      }
      if (ii < best_ii) {
        best_ii = ii;
        best_totals = std::move(totals);
      }
      continue;
    }

    // Branch: N_k ≤ ⌊N̂_k⌋ and N_k ≥ ⌈N̂_k⌉ (paper §3.2.2). The ceil
    // child is pushed last so it is explored first.
    const double floor_v = std::floor(node.relax.n_hat[k]);
    const double ceil_v = std::ceil(node.relax.n_hat[k]);
    const double hint = hints == NodeHints::kWarm ? node.relax.ii : 0.0;

    Node down{node.bounds, {}};
    down.bounds.upper[k] = std::min(down.bounds.upper[k], floor_v);
    Node up{std::move(node.bounds), {}};
    up.bounds.lower[k] = std::max(up.bounds.lower[k], ceil_v);

    if (auto rel = solve_node(problem, down.bounds, hint, options.cache);
        rel.is_ok()) {
      down.relax = std::move(rel.value());
      stack.push_back(std::move(down));
    }
    if (auto rel = solve_node(problem, up.bounds, hint, options.cache);
        rel.is_ok()) {
      up.relax = std::move(rel.value());
      stack.push_back(std::move(up));
    }
  }

  result.nodes = nodes;
  result.proved_optimal = !aborted;
  if (best_totals.empty()) {
    if (aborted) {
      return Status{Code::kLimit,
                    "node cap reached before an integral solution"};
    }
    return Status{Code::kInfeasible, "no integral totals satisfy the "
                                     "pooled resource constraints"};
  }
  result.totals = std::move(best_totals);
  result.ii = best_ii;
  return result;
}

}  // namespace mfa::oracles
