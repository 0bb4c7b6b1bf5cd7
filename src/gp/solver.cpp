#include "gp/solver.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "linalg/decompose.hpp"

namespace mfa::gp {
namespace {

using linalg::Matrix;
using linalg::Vector;

/// Evaluates one LSE function's value, gradient and Hessian at y.
struct Derivatives {
  double value;
  Vector grad;
  Matrix hess;
};

Derivatives eval_full(const LseFunction& f, const Vector& y) {
  Derivatives d{f.value(y), Vector(y.size()), Matrix(y.size(), y.size())};
  f.add_derivatives(y, 1.0, d.grad, d.hess);
  return d;
}

/// The barrier-method working set: objective + inequality constraints in
/// log space, with the Newton centering loop shared by both phases.
class Barrier {
 public:
  Barrier(LseFunction objective, std::vector<LseFunction> constraints,
          const SolverOptions& opts)
      : objective_(std::move(objective)),
        constraints_(std::move(constraints)),
        opts_(opts) {}

  /// h(y) = t·F0(y) − Σ log(−F_i(y)), +inf outside the domain.
  double merit(const Vector& y, double t) const {
    double h = t * objective_.value(y);
    for (const LseFunction& c : constraints_) {
      const double fi = c.value(y);
      if (fi >= 0.0) return std::numeric_limits<double>::infinity();
      h -= std::log(-fi);
    }
    return h;
  }

  /// Newton-minimizes the centering merit from y in place.
  /// Returns false on an unrecoverable numeric failure.
  /// `early_stop` (optional) is checked after every accepted step.
  bool center(Vector& y, double t, int& newton_budget,
              const std::function<bool(const Vector&)>& early_stop) const {
    const std::size_t n = y.size();
    while (newton_budget > 0) {
      --newton_budget;
      ++newton_used_;
      // Assemble gradient and Hessian of the merit: the objective
      // contributes t·∇F0 / t·∇²F0, each constraint κ·∇F_i and
      // κ·∇²F_i + κ²·∇F_i∇F_iᵀ with κ = 1/(−F_i).
      Derivatives obj = eval_full(objective_, y);
      Vector grad = obj.grad * t;
      Matrix hess = obj.hess * t;
      for (const LseFunction& c : constraints_) {
        Derivatives ci = eval_full(c, y);
        MFA_ASSERT_MSG(ci.value < 0.0, "centering left the barrier domain");
        const double inv = 1.0 / (-ci.value);
        for (std::size_t i = 0; i < n; ++i) {
          grad[i] += inv * ci.grad[i];
          for (std::size_t j = 0; j < n; ++j) {
            hess(i, j) += inv * ci.hess(i, j) +
                          inv * inv * ci.grad[i] * ci.grad[j];
          }
        }
      }
      // Newton step.
      Vector rhs = grad * -1.0;
      auto step = linalg::solve_spd(hess, rhs);
      if (!step) return false;
      const double decrement = -linalg::dot(grad, *step) / 2.0;
      if (decrement < opts_.newton_tol) return true;  // centered
      // Trust region in log space: far from all constraints the barrier
      // Hessian vanishes and the Newton step explodes along affine
      // directions; cap the step so iterates move at most a factor
      // e^±kMaxLogStep per coordinate per iteration.
      constexpr double kMaxLogStep = 8.0;
      const double step_len = linalg::norm_inf(*step);
      if (step_len > kMaxLogStep) *step *= kMaxLogStep / step_len;
      // Backtracking line search on the merit (Armijo, slope 0.3).
      const double h0 = merit(y, t);
      const double slope = linalg::dot(grad, *step);
      double alpha = 1.0;
      Vector trial = y;
      double h_trial = 0.0;
      for (;;) {
        trial = y;
        trial += *step * alpha;
        h_trial = merit(trial, t);
        if (h_trial <= h0 + 0.3 * alpha * slope) break;
        alpha *= 0.5;
        if (alpha < 1e-14) return true;  // stalled: accept current center
      }
      y = trial;
      if (early_stop && early_stop(y)) return true;
      // Numerical floor: when the merit stops moving, further Newton
      // steps only burn budget — declare the point centered.
      if (h0 - h_trial < 1e-13 * (1.0 + std::fabs(h0))) return true;
    }
    return true;  // budget exhausted; caller checks newton_budget
  }

  struct PathResult {
    int outer = 0;
    bool converged = false;  ///< duality-gap bound met (or early_stop hit)
    bool numeric_ok = true;  ///< no unrecoverable Newton failure
  };

  /// Full barrier path from a strictly feasible y; y ends at the solution.
  PathResult path(Vector& y, int& newton_budget,
                  const std::function<bool(const Vector&)>& early_stop) const {
    const double m = static_cast<double>(constraints_.size());
    double t = opts_.t0;
    PathResult res;
    while (res.outer < opts_.max_outer) {
      ++res.outer;
      if (!center(y, t, newton_budget, early_stop)) {
        res.numeric_ok = false;
        return res;
      }
      if (early_stop && early_stop(y)) {
        res.converged = true;
        return res;
      }
      if (m == 0.0 || m / t < opts_.tolerance) {
        res.converged = true;
        return res;
      }
      if (newton_budget <= 0) return res;
      t *= opts_.mu;
    }
    return res;
  }

  [[nodiscard]] double max_constraint(const Vector& y) const {
    double worst = -std::numeric_limits<double>::infinity();
    for (const LseFunction& c : constraints_) {
      worst = std::max(worst, c.value(y));
    }
    return worst;
  }

  [[nodiscard]] const std::vector<LseFunction>& constraints() const {
    return constraints_;
  }

  [[nodiscard]] int newton_used() const { return newton_used_; }

 private:
  LseFunction objective_;
  std::vector<LseFunction> constraints_;
  const SolverOptions& opts_;
  mutable int newton_used_ = 0;
};

/// Widens every LSE row with one extra trailing variable s, coefficient
/// −s inside each exponent — turning F(y) ≤ 0 into F(y) − s ≤ 0 while
/// remaining log-sum-exp in (y, s).
LseFunction augment_with_slack(const LseFunction& f) {
  LseFunction out;
  out.a = Matrix(f.a.rows(), f.a.cols() + 1);
  out.b = f.b;
  for (std::size_t r = 0; r < f.a.rows(); ++r) {
    for (std::size_t c = 0; c < f.a.cols(); ++c) out.a(r, c) = f.a(r, c);
    out.a(r, f.a.cols()) = -1.0;
  }
  return out;
}

/// The phase-I barrier over (y, s): minimize s s.t. F_i(y) − s ≤ 0.
Barrier phase1_barrier(const Barrier& main, std::size_t n,
                       const SolverOptions& options) {
  LseFunction slack_obj;
  slack_obj.a = Matrix(1, n + 1);
  slack_obj.a(0, n) = 1.0;  // F0(y, s) = s
  slack_obj.b = Vector(1);
  std::vector<LseFunction> slack_cons;
  slack_cons.reserve(main.constraints().size());
  for (const LseFunction& c : main.constraints()) {
    slack_cons.push_back(augment_with_slack(c));
  }
  return Barrier(std::move(slack_obj), std::move(slack_cons), options);
}

void export_point(const GpProblem& problem, const Vector& y,
                  double max_constraint, GpSolution& sol) {
  // Clamp before exponentiating: a flat objective can let y drift far
  // along a null direction, and exp() must stay positive and finite.
  for (std::size_t i = 0; i < y.size(); ++i) {
    sol.x[i] = std::exp(std::clamp(y[i], -700.0, 700.0));
    if (sol.x[i] == 0.0) sol.x[i] = 1e-300;
  }
  sol.objective = problem.objective().eval(sol.x);
  sol.max_violation = std::exp(max_constraint) - 1.0;
}

}  // namespace

const char* to_string(GpStatus status) {
  switch (status) {
    case GpStatus::kOptimal:
      return "optimal";
    case GpStatus::kInfeasible:
      return "infeasible";
    case GpStatus::kIterLimit:
      return "iteration-limit";
    case GpStatus::kNumeric:
      return "numeric-failure";
  }
  return "unknown";
}

GpSolution GpSolver::solve(const GpProblem& problem) const {
  const std::size_t n = problem.num_variables();
  // The posynomial constraints plus the variable box |y_j| ≤ Y, as the
  // LSE rows ±y_j − Y ≤ 0. Y = 46 (the default) allows x ∈ [1e-20, 1e20],
  // far beyond any meaningful allocation quantity.
  std::vector<LseFunction> cons;
  cons.reserve(problem.constraints().size() + 2 * n);
  for (const Posynomial& p : problem.constraints()) {
    cons.push_back(problem.compile(p));
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (double sign : {1.0, -1.0}) {
      LseFunction bound;
      bound.a = Matrix(1, n);
      bound.a(0, j) = sign;
      bound.b = Vector(1);
      bound.b[0] = -options_.variable_box;
      cons.push_back(std::move(bound));
    }
  }
  const std::size_t num_constraints = cons.size();
  const Barrier main_barrier(problem.compile(problem.objective()),
                             std::move(cons), options_);

  GpSolution sol;
  sol.x.assign(n, 1.0);
  int newton_budget = options_.max_newton * options_.max_outer;
  Vector y(n, 0.0);

  // ---- Phase I: find a strictly feasible y (skipped if y already is).
  if (num_constraints > 0 &&
      main_barrier.max_constraint(y) >= -options_.feas_margin) {
    const Barrier phase1 = phase1_barrier(main_barrier, n, options_);
    Vector ys(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) ys[i] = y[i];
    // s0 strictly above the worst violation keeps the start interior.
    ys[n] = main_barrier.max_constraint(y) + 1.0;
    const double margin = options_.feas_margin;
    Vector yy(n);
    auto feasible_found = [&](const Vector& p) {
      // Check the *original* constraints at the y part of the iterate.
      for (std::size_t i = 0; i < n; ++i) yy[i] = p[i];
      return main_barrier.max_constraint(yy) < -margin;
    };
    const auto p1 = phase1.path(ys, newton_budget, feasible_found);
    sol.newton_iterations += phase1.newton_used();

    for (std::size_t i = 0; i < n; ++i) yy[i] = ys[i];
    const double worst = main_barrier.max_constraint(yy);
    if (worst >= -margin) {
      // Phase I finished without reaching s < 0: either the problem is
      // infeasible (phase I converged) or we ran out of budget.
      sol.status = p1.converged && newton_budget > 0 ? GpStatus::kInfeasible
                   : p1.numeric_ok                   ? GpStatus::kIterLimit
                                                     : GpStatus::kNumeric;
      export_point(problem, yy, worst, sol);
      return sol;
    }
    y = yy;
  }

  // ---- Phase II: barrier path on the true objective.
  const auto p2 = main_barrier.path(y, newton_budget, nullptr);
  sol.outer_iterations = p2.outer;
  sol.newton_iterations += main_barrier.newton_used();
  export_point(problem, y,
               num_constraints == 0
                   ? -std::numeric_limits<double>::infinity()
                   : main_barrier.max_constraint(y),
               sol);
  if (num_constraints == 0) sol.max_violation = 0.0;
  sol.status = p2.converged    ? GpStatus::kOptimal
               : p2.numeric_ok ? GpStatus::kIterLimit
                               : GpStatus::kNumeric;
  return sol;
}

}  // namespace mfa::gp
