#include <cmath>
#include <map>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "gp/expr.hpp"
#include "gp/problem.hpp"
#include "gp/solver.hpp"

namespace mfa::gp {
namespace {

TEST(Monomial, EvalAndAlgebra) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  Monomial m = 2.0 * Monomial::var(x) * Monomial::var(y).pow(-1.0);
  std::vector<double> at{4.0, 2.0};
  EXPECT_DOUBLE_EQ(m.eval(at), 4.0);  // 2·4/2
  EXPECT_EQ(m.exponents(), (std::map<VarId, double>{{x, 1.0}, {y, -1.0}}));

  Monomial inv = m.inverse();
  EXPECT_DOUBLE_EQ(inv.eval(at), 0.25);
  // Exponents cancel exactly when multiplied by the inverse.
  Monomial one = m * inv;
  EXPECT_TRUE(one.exponents().empty());
  EXPECT_DOUBLE_EQ(one.coeff(), 1.0);
}

TEST(Monomial, IntegerExponentFastPathMatchesPow) {
  // e ∈ {1, 2, −1} take the multiply/divide fast path; parity with the
  // generic std::pow route must hold for all of them.
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  const VarId z = p.add_variable("z");
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> point(0.1, 50.0);
  const double exps[] = {1.0, 2.0, -1.0, 0.5, -2.0, 3.0};
  for (double ex : exps) {
    for (double ey : exps) {
      Monomial m = 1.75 * Monomial::var(x).pow(ex) *
                   Monomial::var(y).pow(ey) * Monomial::var(z).pow(-1.0);
      for (int trial = 0; trial < 16; ++trial) {
        std::vector<double> at{point(rng), point(rng), point(rng)};
        const double reference = 1.75 * std::pow(at[0], ex) *
                                 std::pow(at[1], ey) * std::pow(at[2], -1.0);
        EXPECT_NEAR(m.eval(at), reference, 1e-12 * std::fabs(reference))
            << "ex=" << ex << " ey=" << ey;
      }
    }
  }
  // The unit-exponent path is exact, not merely close.
  std::vector<double> at{1.0 / 3.0, 7.0, 1.0};
  EXPECT_DOUBLE_EQ(Monomial::var(x).eval(at), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Monomial::var(y).pow(2.0).eval(at), 49.0);
  EXPECT_DOUBLE_EQ(Monomial::var(x).pow(-1.0).eval(at), 3.0);
}

TEST(Posynomial, SumAndScale) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  Posynomial f = Monomial::var(x) + Posynomial(3.0);
  f *= 2.0;
  std::vector<double> at{5.0};
  EXPECT_DOUBLE_EQ(f.eval(at), 2.0 * 5.0 + 6.0);
  EXPECT_EQ(f.terms().size(), 2u);
}

TEST(LseFunction, ValueMatchesLogOfPosynomial) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  Posynomial f = Monomial::var(x) * Monomial::var(y) + 0.5 * Monomial::var(x);
  LseFunction lse = p.compile(f);
  // y = log(x=2, y=3).
  linalg::Vector at{std::log(2.0), std::log(3.0)};
  EXPECT_NEAR(lse.value(at), std::log(2.0 * 3.0 + 0.5 * 2.0), 1e-12);
}

TEST(LseFunction, GradientMatchesFiniteDifference) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  Posynomial f = Monomial::var(x).pow(2.0) +
                 3.0 * Monomial::var(y).pow(-1.0) * Monomial::var(x);
  LseFunction lse = p.compile(f);

  linalg::Vector at{0.3, -0.2};
  linalg::Vector grad(2);
  linalg::Matrix hess(2, 2);
  lse.add_derivatives(at, 1.0, grad, hess);

  const double h = 1e-6;
  for (std::size_t i = 0; i < 2; ++i) {
    linalg::Vector hi = at;
    linalg::Vector lo = at;
    hi[i] += h;
    lo[i] -= h;
    const double fd = (lse.value(hi) - lse.value(lo)) / (2 * h);
    EXPECT_NEAR(grad[i], fd, 1e-6);
  }
}

TEST(LseFunction, HessianMatchesFiniteDifference) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  Posynomial f = Monomial::var(x) + Monomial::var(y) +
                 Monomial::var(x) * Monomial::var(y);
  LseFunction lse = p.compile(f);

  linalg::Vector at{0.1, 0.4};
  linalg::Vector grad(2);
  linalg::Matrix hess(2, 2);
  lse.add_derivatives(at, 1.0, grad, hess);

  const double h = 1e-5;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      linalg::Vector pp = at, pm = at, mp = at, mm = at;
      pp[i] += h;
      pp[j] += h;
      pm[i] += h;
      pm[j] -= h;
      mp[i] -= h;
      mp[j] += h;
      mm[i] -= h;
      mm[j] -= h;
      const double fd = (lse.value(pp) - lse.value(pm) - lse.value(mp) +
                         lse.value(mm)) /
                        (4 * h * h);
      EXPECT_NEAR(hess(i, j), fd, 1e-4);
    }
  }
}

// minimize x + 1/x  →  x* = 1, f* = 2 (unconstrained GP).
TEST(GpSolver, UnconstrainedKnownOptimum) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  p.set_objective(Monomial::var(x) + Monomial::var(x).inverse());
  GpSolution sol = GpSolver().solve(p);
  ASSERT_TRUE(sol.ok()) << to_string(sol.status);
  EXPECT_NEAR(sol.x[0], 1.0, 1e-5);
  EXPECT_NEAR(sol.objective, 2.0, 1e-8);
}

// minimize x·y s.t. 1/(x·y) ≤ 1 → optimum x·y = 1.
TEST(GpSolver, ConstrainedProductOptimum) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  p.set_objective(Monomial::var(x) * Monomial::var(y));
  p.add_le1((Monomial::var(x) * Monomial::var(y)).inverse(), "xy >= 1");
  GpSolution sol = GpSolver().solve(p);
  ASSERT_TRUE(sol.ok()) << to_string(sol.status);
  EXPECT_NEAR(sol.x[0] * sol.x[1], 1.0, 1e-6);
  EXPECT_LE(sol.max_violation, 1e-8);
}

// Textbook box GP: maximize volume x·y·z (minimize its inverse) with
// wall area 2(xz + yz) ≤ 10, floor area x·y ≤ 5, aspect bounds
// 0.5 ≤ x/y ≤ 2, 0.5 ≤ z/y... simplified without aspect bounds the
// optimum has xy = 5 and 2(xz+yz) = 10.
TEST(GpSolver, BoxDesign) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  const VarId z = p.add_variable("z");
  p.set_objective(
      (Monomial::var(x) * Monomial::var(y) * Monomial::var(z)).inverse());
  p.add_le1(0.2 * Monomial::var(x) * Monomial::var(z) +
                0.2 * Monomial::var(y) * Monomial::var(z),
            "wall area");
  p.add_le1(0.2 * Monomial::var(x) * Monomial::var(y), "floor area");
  GpSolution sol = GpSolver().solve(p);
  ASSERT_TRUE(sol.ok()) << to_string(sol.status);
  // Both constraints active at the optimum.
  EXPECT_NEAR(sol.x[0] * sol.x[1], 5.0, 1e-4);
  EXPECT_NEAR(2.0 * sol.x[2] * (sol.x[0] + sol.x[1]), 10.0, 1e-3);
  // Symmetric in x and y.
  EXPECT_NEAR(sol.x[0], sol.x[1], 1e-4);
}

TEST(GpSolver, DetectsInfeasible) {
  // x ≤ 1/2 and x ≥ 2 simultaneously.
  GpProblem p;
  const VarId x = p.add_variable("x");
  p.set_objective(Monomial::var(x));
  p.add_le1(2.0 * Monomial::var(x), "x <= 1/2");
  p.add_le1(2.0 * Monomial::var(x).inverse(), "x >= 2");
  GpSolution sol = GpSolver().solve(p);
  EXPECT_EQ(sol.status, GpStatus::kInfeasible);
}

TEST(GpSolver, FeasibleStartSkipsPhase1) {
  // x = 1 is strictly feasible for x ≤ 10 — converges immediately.
  GpProblem p;
  const VarId x = p.add_variable("x");
  p.set_objective(Monomial::var(x));
  p.add_le1(0.1 * Monomial::var(x), "x <= 10");
  GpSolution sol = GpSolver().solve(p);
  ASSERT_TRUE(sol.ok());
  // Objective pushed toward 0; barrier keeps it positive but tiny
  // relative to the cap.
  EXPECT_LT(sol.x[0], 1e-3);
}

TEST(GpSolver, ReportsIterLimitOnStarvedBudget) {
  GpProblem p;
  const VarId x = p.add_variable("x");
  const VarId y = p.add_variable("y");
  p.set_objective(Monomial::var(x) * Monomial::var(y));
  p.add_le1((Monomial::var(x) * Monomial::var(y)).inverse(), "xy >= 1");
  SolverOptions opts;
  opts.max_outer = 1;
  opts.max_newton = 1;
  GpSolution sol = GpSolver(opts).solve(p);
  EXPECT_NE(sol.status, GpStatus::kOptimal);
}

/// Parameterized: minimize x s.t. c/x ≤ 1 → x* = c, for several c.
class ScalarBoundGp : public ::testing::TestWithParam<double> {};

TEST_P(ScalarBoundGp, OptimumEqualsBound) {
  const double c = GetParam();
  GpProblem p;
  const VarId x = p.add_variable("x");
  p.set_objective(Monomial::var(x));
  p.add_le1(c * Monomial::var(x).inverse(), "x >= c");
  GpSolution sol = GpSolver().solve(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.x[0], c, c * 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Bounds, ScalarBoundGp,
                         ::testing::Values(0.01, 0.5, 1.0, 3.0, 42.0,
                                           1000.0));

}  // namespace
}  // namespace mfa::gp
