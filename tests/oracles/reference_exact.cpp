#include "oracles/reference_exact.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "solver/candidates.hpp"
#include "solver/packing.hpp"

namespace mfa::oracles {
namespace {

using core::Allocation;
using core::Problem;
using solver::Budget;
using solver::ExactOptions;
using solver::ExactResult;
using solver::PackingMode;
using solver::PackingResult;
using solver::PackingSolver;

/// Node cap for each individual packing call, as in solver/exact.cpp.
constexpr std::int64_t kMaxNodesPerPack = 500'000;

}  // namespace

StatusOr<ExactResult> reference_exact(const Problem& problem,
                                      const ExactOptions& options) {
  const Status valid = problem.validate();
  if (!valid.is_ok()) return valid;

  const auto t_start = std::chrono::steady_clock::now();
  auto elapsed = [&t_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t_start)
        .count();
  };

  PackingSolver packer(problem);
  const std::vector<double> candidates = solver::candidate_iis(problem);
  MFA_ASSERT(!candidates.empty());

  bool all_proved = true;
  bool out_of_budget = false;
  std::int64_t nodes_total = 0;

  // Each packing runs under its own node cap (kMaxNodesPerPack) within
  // the remaining global node/time budget.
  auto pack = [&](const std::vector<int>& totals,
                  PackingMode mode) -> PackingResult {
    std::int64_t remaining = options.max_nodes - nodes_total;
    double seconds_left = options.max_seconds - elapsed();
    if (options.shared != nullptr) {
      remaining = std::min(remaining, options.shared->remaining_nodes());
      seconds_left =
          std::min(seconds_left, options.shared->remaining_seconds());
    }
    if (remaining <= 0 || seconds_left <= 0.0) {
      out_of_budget = true;
      all_proved = false;
      return PackingResult{};
    }
    Budget budget(std::min(kMaxNodesPerPack, remaining), seconds_left);
    PackingResult r = packer.pack(totals, mode, budget);
    nodes_total += budget.nodes_used();
    if (options.shared != nullptr) {
      options.shared->consume(budget.nodes_used());
    }
    if (!r.proved_optimal) all_proved = false;
    return r;
  };

  // ---- Stage 1 (β = 0 optimum): binary search for the smallest
  // candidate II whose minimal totals admit a feasible packing.
  // "Unknown" (budget-aborted) packings are treated as infeasible but
  // poison the optimality proof.
  auto feasibility = [&](std::size_t idx) -> PackingResult {
    return pack(solver::minimal_totals(problem, candidates[idx]),
                PackingMode::kFeasibility);
  };

  PackingResult top = feasibility(candidates.size() - 1);
  if (!top.feasible) {
    // Even one CU per kernel cannot be placed.
    if (top.proved_optimal) {
      return Status{Code::kInfeasible,
                    "no feasible placement exists even at N_k = 1"};
    }
    return Status{Code::kLimit, "budget exhausted before a first solution"};
  }

  std::size_t lo = 0;
  std::size_t hi = candidates.size() - 1;
  PackingResult best_pack = std::move(top);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    PackingResult r = feasibility(mid);
    if (r.feasible) {
      hi = mid;
      best_pack = std::move(r);
    } else {
      lo = mid + 1;
    }
  }
  const std::size_t first_feasible = hi;

  ExactResult result{*best_pack.allocation, best_pack.allocation->ii(),
                     best_pack.allocation->phi(), 0.0, all_proved, 0, 0.0};
  result.goal = best_pack.allocation->goal();

  // ---- Stage 2 (β > 0): ascend the candidate list with min-spreading
  // packings. φ ≥ 1/2 always (N_k ≥ 1 ⇒ φ_k ≥ 1/2), which yields the
  // termination cutoff; capacity-forced chunk bounds skip hopeless
  // candidates early.
  if (problem.beta > 0.0) {
    double best_g = std::numeric_limits<double>::infinity();
    std::optional<Allocation> best_alloc;
    for (std::size_t idx = first_feasible; idx < candidates.size(); ++idx) {
      const double t = candidates[idx];
      if (problem.alpha * t + problem.beta * 0.5 >= best_g) break;
      const std::vector<int> totals = solver::minimal_totals(problem, t);
      double phi_lb = 0.0;
      for (std::size_t k = 0; k < totals.size(); ++k) {
        phi_lb =
            std::max(phi_lb, solver::phi_lower_bound(problem, k, totals[k]));
      }
      if (problem.alpha * t + problem.beta * phi_lb >= best_g) continue;
      PackingResult r = pack(totals, PackingMode::kMinSpreading);
      if (out_of_budget) break;
      if (!r.feasible) continue;  // possible just above first_feasible ties
      const double g = r.allocation->goal();
      if (g < best_g) {
        best_g = g;
        best_alloc = std::move(r.allocation);
      }
    }
    if (best_alloc) {
      result.allocation = std::move(*best_alloc);
      result.ii = result.allocation.ii();
      result.phi = result.allocation.phi();
      result.goal = result.allocation.goal();
    }
  }
  result.proved_optimal = all_proved && !out_of_budget;

  result.nodes = nodes_total;
  result.seconds = elapsed();
  MFA_ASSERT_MSG(result.allocation.feasible(),
                 "exact solver produced an infeasible allocation");
  return result;
}

}  // namespace mfa::oracles
