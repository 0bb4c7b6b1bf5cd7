#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "linalg/decompose.hpp"
#include "linalg/matrix.hpp"
#include "oracles/lu.hpp"

namespace mfa::linalg {
namespace {

using oracles::Lu;

/// A·x, for residual checks.
Vector multiply(const Matrix& a, const Vector& x) {
  Vector y(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) y[r] += a(r, c) * x[c];
  }
  return y;
}

TEST(Vector, ArithmeticAndNorms) {
  Vector a{1.0, -2.0, 3.0};
  Vector b{0.5, 0.5, 0.5};
  Vector sum = a + b;
  EXPECT_DOUBLE_EQ(sum[0], 1.5);
  EXPECT_DOUBLE_EQ(sum[1], -1.5);
  EXPECT_DOUBLE_EQ(sum[2], 3.5);
  EXPECT_DOUBLE_EQ(dot(a, b), 0.5 - 1.0 + 1.5);
  EXPECT_DOUBLE_EQ(norm_inf(a), 3.0);
}

TEST(Vector, ScalarScaling) {
  Vector v{2.0, -4.0};
  EXPECT_DOUBLE_EQ((v * 0.5)[0], 1.0);
  EXPECT_DOUBLE_EQ((0.5 * v)[1], -2.0);
}

TEST(Vector, EmptyNorms) {
  Vector v;
  EXPECT_DOUBLE_EQ(norm_inf(v), 0.0);
}

TEST(Cholesky, SolvesSpdSystem) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  auto chol = Cholesky::factor(a);
  ASSERT_TRUE(chol.has_value());
  Vector b{2.0, 5.0};
  Vector x = chol->solve(b);
  Vector check = multiply(a, x);
  EXPECT_NEAR(check[0], b[0], 1e-12);
  EXPECT_NEAR(check[1], b[1], 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky::factor(a).has_value());
}

TEST(Cholesky, RegularizationRescuesSingular) {
  Matrix a{{1.0, 1.0}, {1.0, 1.0}};  // rank 1
  EXPECT_FALSE(Cholesky::factor(a).has_value());
  EXPECT_TRUE(Cholesky::factor(a, 1e-6).has_value());
}

TEST(Lu, SolvesGeneralSystem) {
  Matrix a{{0.0, 2.0, 1.0}, {1.0, -2.0, -3.0}, {-1.0, 1.0, 2.0}};
  auto lu = Lu::factor(a);
  ASSERT_TRUE(lu.has_value());
  Vector b{-8.0, 0.0, 3.0};
  Vector x = lu->solve(b);
  Vector check = multiply(a, x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(check[i], b[i], 1e-10);
}

TEST(Lu, DeterminantKnown) {
  Matrix a{{2.0, 0.0}, {0.0, 3.0}};
  auto lu = Lu::factor(a);
  ASSERT_TRUE(lu.has_value());
  EXPECT_NEAR(lu->determinant(), 6.0, 1e-12);

  // Permutation flips sign bookkeeping but not the determinant value.
  Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  auto lub = Lu::factor(b);
  ASSERT_TRUE(lub.has_value());
  EXPECT_NEAR(lub->determinant(), -1.0, 1e-12);
}

TEST(Lu, RejectsSingular) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_FALSE(Lu::factor(a).has_value());
}

TEST(SolveSpd, HandlesSemidefinite) {
  // A = vvᵀ + εI is near-singular; solve_spd must still return a finite
  // solution of the regularized system.
  Matrix a{{1.0, 1.0}, {1.0, 1.0 + 1e-14}};
  Vector b{1.0, 1.0};
  auto x = solve_spd(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_TRUE(std::isfinite((*x)[0]));
  EXPECT_TRUE(std::isfinite((*x)[1]));
}

/// Property sweep: random SPD systems A = BᵀB + I solve to high accuracy
/// via both factorizations.
class RandomSpdTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSpdTest, CholeskyAndLuAgree) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 6;
  Matrix b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) = u(rng);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) a(i, j) += b(k, i) * b(k, j);
    }
    a(i, i) += 1.0;
  }

  Vector rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = u(rng);

  auto chol = Cholesky::factor(a);
  auto lu = Lu::factor(a);
  ASSERT_TRUE(chol.has_value());
  ASSERT_TRUE(lu.has_value());
  Vector x1 = chol->solve(rhs);
  Vector x2 = lu->solve(rhs);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-9);

  Vector residual = multiply(a, x1) - rhs;
  EXPECT_LT(norm_inf(residual), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSpdTest, ::testing::Range(1, 21));

}  // namespace
}  // namespace mfa::linalg
