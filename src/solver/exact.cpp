#include "solver/exact.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "solver/candidates.hpp"
#include "solver/packing.hpp"

namespace mfa::solver {
namespace {

using core::Allocation;
using core::Problem;

/// Node cap for each individual packing (feasibility or min-φ) call.
/// Without it, one adversarial infeasibility proof mid-search could
/// drain the whole budget and degrade every later candidate; with it, a
/// stuck call is abandoned ("unknown", treated conservatively) and the
/// search continues at full strength. The packing search's
/// capacity-count bounds and the β > 0 scan's cutoffs decide most packs
/// long before it: on the paper's three cases over fractions 0.50-1.00
/// at the Table-4 weights no pack reaches it. At β = 0 three VGG-16
/// points (0.75, 0.90 and 0.93) still have a feasibility pack that does.
constexpr std::int64_t kMaxNodesPerPack = 500'000;

/// The φ a min-spreading pack at candidate II t must reach for its
/// placement to tie or beat the incumbent's goal g: (g − α·t)/β, plus
/// two pruning tolerances of the packing search (which prunes a subtree
/// whose bound comes within one of the cutoff) and a relative margin
/// for the rounding of goal() and of this quotient.
double phi_cutoff(const Problem& problem, double g, double t) {
  const double alpha_t = problem.alpha * t;
  return (g - alpha_t) / problem.beta + 2.0 * kPackingEps +
         1e-11 * (g + alpha_t) / problem.beta;
}

}  // namespace

StatusOr<ExactResult> ExactSolver::solve(const Problem& problem) const {
  const Status valid = problem.validate();
  if (!valid.is_ok()) return valid;

  const auto t_start = std::chrono::steady_clock::now();
  auto elapsed = [&t_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t_start)
        .count();
  };

  PackingSolver packer(problem);
  const std::vector<double> candidates = candidate_iis(problem);
  MFA_ASSERT(!candidates.empty());

  bool all_proved = true;
  bool out_of_budget = false;
  std::int64_t nodes_total = 0;

  // Each packing runs under its own node cap (kMaxNodesPerPack) within
  // the remaining global node/time budget.
  auto pack = [&](const std::vector<int>& totals, PackingMode mode,
                  double bound) -> PackingResult {
    std::int64_t remaining = options_.max_nodes - nodes_total;
    double seconds_left = options_.max_seconds - elapsed();
    if (options_.shared != nullptr) {
      remaining = std::min(remaining, options_.shared->remaining_nodes());
      seconds_left =
          std::min(seconds_left, options_.shared->remaining_seconds());
    }
    if (remaining <= 0 || seconds_left <= 0.0) {
      out_of_budget = true;
      all_proved = false;
      return PackingResult{};
    }
    Budget budget(std::min(kMaxNodesPerPack, remaining), seconds_left);
    PackingResult r = packer.pack(totals, mode, budget, nullptr, bound);
    nodes_total += budget.nodes_used();
    if (options_.shared != nullptr) {
      options_.shared->consume(budget.nodes_used());
    }
    if (!r.proved_optimal) all_proved = false;
    return r;
  };
  auto feasibility = [&](std::size_t idx) -> PackingResult {
    return pack(minimal_totals(problem, candidates[idx]),
                PackingMode::kFeasibility,
                std::numeric_limits<double>::infinity());
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
  Allocation best = std::move(*top.allocation);

  if (problem.beta == 0.0) {
    // ---- β = 0: binary search for the smallest candidate II whose
    // minimal totals admit a feasible packing. An "unknown"
    // (budget-aborted) probe counts as infeasible but poisons the
    // optimality proof.
    std::size_t lo = 0;
    std::size_t hi = candidates.size() - 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      PackingResult r = feasibility(mid);
      if (r.feasible) {
        hi = mid;
        best = std::move(*r.allocation);
      } else {
        lo = mid + 1;
      }
    }
  } else {
    // ---- β > 0: one scan from the top candidate down, each pack
    // bounded by the incumbent's goal (see the file comment).
    double best_g = best.goal();
    bool placed = true;  // a placement was found at candidates[idx + 1]
    for (std::size_t idx = candidates.size() - 1; idx-- > 0;) {
      const bool placed_above = std::exchange(placed, false);
      const double t = candidates[idx];
      const std::vector<int> totals = minimal_totals(problem, t);
      if (!pooled_feasible(problem, totals)) break;
      double phi_lb = 0.0;
      int most = 0;
      for (std::size_t k = 0; k < totals.size(); ++k) {
        phi_lb = std::max(phi_lb, phi_lower_bound(problem, k, totals[k]));
        most = std::max(most, totals[k]);
      }
      const double cut = phi_cutoff(problem, best_g, t);
      if (phi_lb >= cut) continue;
      const bool proved_above = all_proved;
      PackingResult r = pack(totals, PackingMode::kMinSpreading, cut);
      if (out_of_budget) break;
      if (r.feasible) {
        placed = true;
        const double g = r.allocation->goal();
        if (g <= best_g) {
          best_g = g;
          best = std::move(*r.allocation);
        }
      } else if (cut - kPackingEps > 0.5 * most) {
        if (r.proved_optimal) break;  // no placement at t nor below it
        // Undecided at its node cap. The candidate above, where no
        // placement was found, may be easier to prove infeasible,
        // which decides t and everything below as well.
        if (!placed_above) {
          const PackingResult above = feasibility(idx + 1);
          if (out_of_budget) break;
          if (!above.feasible && above.proved_optimal) {
            all_proved = proved_above;
            break;
          }
        }
      }
    }
  }

  MFA_ASSERT_MSG(best.feasible(),
                 "exact solver produced an infeasible allocation");
  const double ii = best.ii();
  const double phi = best.phi();
  const double goal = best.goal();
  return ExactResult{std::move(best), ii, phi, goal,
                     all_proved && !out_of_budget, nodes_total, elapsed()};
}

}  // namespace mfa::solver
