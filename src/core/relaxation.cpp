#include "core/relaxation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/fingerprint.hpp"

namespace mfa::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cheapest N̂ meeting target t under bounds: max(L_k, WCET_k/t),
/// written into a caller-owned buffer so the bisection's ~200 probes per
/// solve share one allocation.
void cheapest_n_into(const Problem& p, const CuBounds& b, double t,
                     std::vector<double>& n) {
  n.resize(p.num_kernels());
  for (std::size_t k = 0; k < p.num_kernels(); ++k) {
    n[k] = std::max(b.lower[k], p.app.kernels[k].wcet_ms / t);
  }
}

/// Scratch for one bisection solve, reused across calls on the same
/// thread. Keyed by the problem's structural identity in the only way
/// the bisection cares about — the kernel count — so a thread hammering
/// one branch-and-bound tree (every node shares the root's kernel set)
/// never reallocates after the first solve. resize() is a no-op when the
/// size already matches, so switching problems just resizes once.
struct BisectionWorkspace {
  std::vector<double> n;
};

BisectionWorkspace& bisection_workspace() {
  thread_local BisectionWorkspace ws;
  return ws;
}

/// Pooled resource feasibility of a candidate N̂ (eqs. 17–18 with bounds).
/// Pooled capacity is Σ_f R_f — F·R on homogeneous platforms (bit-equal
/// to the seed arithmetic), the class-weighted sum on mixed ones.
bool pooled_feasible(const Problem& p, const CuBounds& b,
                     const std::vector<double>& n) {
  for (std::size_t k = 0; k < p.num_kernels(); ++k) {
    if (n[k] > b.upper[k] * (1.0 + 1e-12) + 1e-12) return false;
  }
  const ResourceVec pooled = p.pooled_cap();
  for (std::size_t axis = 0; axis < kNumResources; ++axis) {
    double used = 0.0;
    for (std::size_t k = 0; k < p.num_kernels(); ++k) {
      used += n[k] * p.app.kernels[k].res.axis(axis);
    }
    if (used > pooled.axis(axis) * (1.0 + 1e-12) + 1e-12) return false;
  }
  double bw = 0.0;
  for (std::size_t k = 0; k < p.num_kernels(); ++k) {
    bw += n[k] * p.app.kernels[k].bw;
  }
  return bw <= p.pooled_bw_cap() * (1.0 + 1e-12) + 1e-12;
}

}  // namespace

CuBounds CuBounds::defaults(const Problem& problem) {
  CuBounds b;
  b.lower.assign(problem.num_kernels(), 1.0);
  b.upper.resize(problem.num_kernels());
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    const int cap = problem.max_cu_total(k);
    b.upper[k] = cap > 0 ? static_cast<double>(cap) : 0.0;
  }
  return b;
}

StatusOr<RelaxedSolution> solve_relaxation(const Problem& problem,
                                           const CuBounds& bounds,
                                           double ii_hint) {
  RelaxedSolution sol;
  if (Status st = solve_relaxation_into(problem, bounds, ii_hint, sol);
      !st.is_ok()) {
    return st;
  }
  return sol;
}

Status solve_relaxation_into(const Problem& problem, const CuBounds& bounds,
                             double ii_hint, RelaxedSolution& out) {
  MFA_ASSERT(bounds.lower.size() == problem.num_kernels());
  MFA_ASSERT(bounds.upper.size() == problem.num_kernels());
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    MFA_ASSERT_MSG(bounds.lower[k] >= 0.0, "negative CU lower bound");
    if (bounds.lower[k] > bounds.upper[k]) {
      return Status{Code::kInfeasible, "empty CU bound interval"};
    }
  }

  // Bracket the optimum: below t_lo some kernel cannot meet the target
  // even at its upper bound; above t_hi the cheapest N̂ stops changing.
  double t_lo = 0.0;
  double t_hi = 0.0;
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    const double wcet = problem.app.kernels[k].wcet_ms;
    if (bounds.upper[k] > 0.0 && std::isfinite(bounds.upper[k])) {
      t_lo = std::max(t_lo, wcet / bounds.upper[k]);
    }
    t_hi = std::max(t_hi, wcet / std::max(bounds.lower[k], 1e-12));
  }
  if (t_lo == 0.0) t_lo = 1e-12;
  t_hi = std::max(t_hi, t_lo);

  // Every probe shares the thread-local scratch; the feasibility
  // arithmetic is unchanged, so results stay bit-identical to the
  // allocating version.
  std::vector<double>& n = bisection_workspace().n;
  auto feasible_at = [&](double t) {
    cheapest_n_into(problem, bounds, t, n);
    return pooled_feasible(problem, bounds, n);
  };

  if (!feasible_at(t_hi)) {
    return Status{Code::kInfeasible,
                  "pooled resource constraints violated at minimum CUs"};
  }

  if (feasible_at(t_lo)) {
    out.ii = t_lo;  // bound-limited: cannot go below t_lo by construction
  } else {
    // Monotone bisection: infeasible at lo, feasible at hi. A warm hint
    // inside the bracket is probed once and replaces the matching end,
    // preserving both invariants; branch-and-bound children seed this
    // with the parent's ÎI (a valid lower bound after tightening).
    double lo = t_lo;
    double hi = t_hi;
    if (ii_hint > lo && ii_hint < hi) {
      if (feasible_at(ii_hint)) {
        hi = ii_hint;
      } else {
        lo = ii_hint;
      }
    }
    for (int iter = 0; iter < 200 && (hi - lo) > 1e-14 * hi; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (feasible_at(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    out.ii = hi;
  }
  cheapest_n_into(problem, bounds, out.ii, n);
  // Copy-assignment from the scratch reuses out's capacity — same-size
  // callers (every node of one branch-and-bound tree) never allocate.
  out.n_hat = n;
  return Status::ok();
}

StatusOr<RelaxedSolution> solve_relaxation(const Problem& problem,
                                           const CuBounds& bounds) {
  return solve_relaxation(problem, bounds, /*ii_hint=*/0.0);
}

StatusOr<RelaxedSolution> solve_relaxation(const Problem& problem) {
  return solve_relaxation(problem, CuBounds::defaults(problem));
}

gp::GpProblem build_relaxation_gp(const Problem& problem,
                                  const CuBounds& bounds) {
  using gp::Monomial;
  using gp::Posynomial;

  gp::GpProblem model;
  const gp::VarId ii = model.add_variable("II");
  std::vector<gp::VarId> n_vars;
  n_vars.reserve(problem.num_kernels());
  for (const Kernel& k : problem.app.kernels) {
    n_vars.push_back(model.add_variable("N_" + k.name));
  }

  model.set_objective(Monomial::var(ii));

  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    const Kernel& kern = problem.app.kernels[k];
    // WCET_k · II⁻¹ · N_k⁻¹ ≤ 1  (eq. 15).
    model.add_le1(Monomial(kern.wcet_ms) * Monomial::var(ii).inverse() *
                      Monomial::var(n_vars[k]).inverse(),
                  "latency " + kern.name);
    // L_k / N_k ≤ 1 (eq. 16 generalized to the node lower bound) and
    // N_k / U_k ≤ 1 for finite node upper bounds. Both carry a relative
    // 1e-9 slack so a collapsed interval L = U (an equality, common when
    // capacity allows exactly one CU) keeps a strict interior for the
    // barrier method; the optimum shifts by O(1e-9) at most.
    constexpr double kBoundSlack = 1e-9;
    if (bounds.lower[k] > 0.0) {
      model.add_le1(Monomial(bounds.lower[k] * (1.0 - kBoundSlack)) *
                        Monomial::var(n_vars[k]).inverse(),
                    "min CU " + kern.name);
    }
    if (std::isfinite(bounds.upper[k]) && bounds.upper[k] > 0.0) {
      model.add_le1(Monomial(1.0 / (bounds.upper[k] * (1.0 + kBoundSlack))) *
                        Monomial::var(n_vars[k]),
                    "max CU " + kern.name);
    }
  }

  // Σ_k N_k·R_k/Σ_f R_f ≤ 1 per resource axis with non-trivial demand
  // (eq. 17, pooled over the possibly mixed fleet), and the bandwidth
  // twin (eq. 18).
  const ResourceVec pooled = problem.pooled_cap();
  for (std::size_t axis = 0; axis < kNumResources; ++axis) {
    Posynomial sum;
    bool any = false;
    for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
      const double demand = problem.app.kernels[k].res.axis(axis);
      if (demand <= 0.0) continue;
      MFA_ASSERT_MSG(pooled.axis(axis) > 0.0,
                     "demand on a zero-capacity axis (validate() first)");
      sum += Monomial(demand / pooled.axis(axis)) * Monomial::var(n_vars[k]);
      any = true;
    }
    if (any) {
      model.add_le1(sum,
                    std::string("resource ") +
                        resource_name(static_cast<Resource>(axis)));
    }
  }
  const double pooled_bw = problem.pooled_bw_cap();
  Posynomial bw_sum;
  bool any_bw = false;
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    const double demand = problem.app.kernels[k].bw;
    if (demand <= 0.0) continue;
    MFA_ASSERT_MSG(pooled_bw > 0.0, "bandwidth demand with zero bandwidth cap");
    bw_sum += Monomial(demand / pooled_bw) * Monomial::var(n_vars[k]);
    any_bw = true;
  }
  if (any_bw) model.add_le1(bw_sum, "bandwidth");

  return model;
}

StatusOr<RelaxedSolution> solve_relaxation_gp(
    const Problem& problem, const gp::SolverOptions& options) {
  const CuBounds bounds = CuBounds::defaults(problem);
  for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
    if (bounds.lower[k] > bounds.upper[k]) {
      return Status{Code::kInfeasible, "empty CU bound interval"};
    }
  }
  const gp::GpSolution gp_sol =
      gp::GpSolver(options).solve(build_relaxation_gp(problem, bounds));
  if (gp_sol.status == gp::GpStatus::kInfeasible) {
    return Status{Code::kInfeasible, "GP phase I proved infeasibility"};
  }
  if (!gp_sol.ok()) {
    return Status{Code::kNumeric,
                  std::string("GP solver: ") + to_string(gp_sol.status)};
  }
  RelaxedSolution sol;
  sol.ii = gp_sol.x[0];
  sol.n_hat.assign(gp_sol.x.begin() + 1, gp_sol.x.end());
  return sol;
}

Fingerprint relaxation_cache_key(const Problem& problem,
                                 const CuBounds& bounds, double ii_hint) {
  Fingerprint key = relaxation_fingerprint(problem);
  mix_bounds(key, bounds);
  key.mix(ii_hint);
  key.mix(std::uint64_t{0xb15ec7});  // algorithm tag: bisection
  return key;
}

}  // namespace mfa::core
