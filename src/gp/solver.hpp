// Interior-point solver for geometric programs.
//
// The GP is solved in log space, where it is convex: with y = log x every
// posynomial constraint f_i(x) ≤ 1 becomes a log-sum-exp constraint
// F_i(y) ≤ 0. The solver is a classic two-phase barrier method:
//
//   phase I   minimize s  s.t.  F_i(y) − s ≤ 0      (always strictly
//             feasible for large s; stops as soon as s < 0, i.e. a
//             strictly feasible y is found, or proves infeasibility)
//   phase II  barrier path: Newton-center  t·F0(y) − Σ log(−F_i(y))
//             for t = t0, μ·t0, μ²·t0, … until the duality-gap bound
//             m/t drops below tolerance.
//
// Phase I reuses the phase-II machinery verbatim because subtracting s
// inside every exponent keeps each constraint a log-sum-exp in (y, s).
//
// This is the paper's "GP step" as GPkit runs it, kept as the reference
// for the exact bisection in core/relaxation.hpp (which every production
// path uses): core::solve_relaxation_gp drives it on the allocation model,
// and the fuzzer and the relaxation tests assert both agree.
#pragma once

#include <vector>

#include "gp/problem.hpp"

namespace mfa::gp {

/// Solver configuration. Defaults are tuned for allocation-model GPs
/// (tens of variables, hundreds of constraints).
struct SolverOptions {
  double tolerance = 1e-9;     ///< target duality-gap bound m/t
  double t0 = 1.0;             ///< initial barrier weight
  double mu = 20.0;            ///< barrier weight multiplier per outer step
  int max_outer = 80;          ///< barrier stages (phase II)
  int max_newton = 200;        ///< Newton iterations per centering
  double newton_tol = 1e-12;   ///< λ²/2 decrement threshold
  double feas_margin = 1e-10;  ///< strict-feasibility margin for phase I
  /// Bound |log x_j| ≤ variable_box added to every solve; keeps the
  /// phase-I merit bounded and phase II free of drift along flat
  /// directions. 46 ≈ log(1e20).
  double variable_box = 46.0;
};

enum class GpStatus {
  kOptimal,     ///< converged to tolerance
  kInfeasible,  ///< phase I proved no strictly feasible point exists
  kIterLimit,   ///< budget exhausted before convergence
  kNumeric,     ///< Newton system unsolvable even with regularization
};

/// Stable text name of a solver status.
const char* to_string(GpStatus status);

/// Result of a GP solve.
struct GpSolution {
  GpStatus status = GpStatus::kNumeric;
  std::vector<double> x;        ///< primal point, indexed by VarId (x > 0)
  double objective = 0.0;       ///< f0(x) at the returned point
  double max_violation = 0.0;   ///< max_i f_i(x) − 1 (≤ 0 when feasible)
  int newton_iterations = 0;    ///< total Newton steps (both phases)
  int outer_iterations = 0;     ///< barrier stages executed

  [[nodiscard]] bool ok() const { return status == GpStatus::kOptimal; }
};

/// Solves a GpProblem. Stateless apart from options; reusable.
class GpSolver {
 public:
  explicit GpSolver(SolverOptions options = {}) : options_(options) {}

  /// Two-phase barrier solve, started cold at y = 0 (x = 1).
  [[nodiscard]] GpSolution solve(const GpProblem& problem) const;

  [[nodiscard]] const SolverOptions& options() const { return options_; }

 private:
  SolverOptions options_;
};

}  // namespace mfa::gp
