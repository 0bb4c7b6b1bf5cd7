#include "oracles/lu.hpp"

#include <cmath>
#include <numeric>
#include <utility>

namespace mfa::oracles {

using linalg::Matrix;
using linalg::Vector;

std::optional<Lu> Lu::factor(const Matrix& a) {
  MFA_ASSERT(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix lu = a;
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  int sign = 1;
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: bring the largest remaining entry to the diagonal.
    std::size_t pivot = col;
    double best = std::fabs(lu(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(lu(r, col)) > best) {
        best = std::fabs(lu(r, col));
        pivot = r;
      }
    }
    if (best == 0.0 || !std::isfinite(best)) return std::nullopt;
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu(col, c), lu(pivot, c));
      std::swap(perm[col], perm[pivot]);
      sign = -sign;
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      lu(r, col) /= lu(col, col);
      const double m = lu(r, col);
      if (m == 0.0) continue;
      for (std::size_t c = col + 1; c < n; ++c) lu(r, c) -= m * lu(col, c);
    }
  }
  return Lu(std::move(lu), std::move(perm), sign);
}

Vector Lu::solve(const Vector& b) const {
  const std::size_t n = dim();
  MFA_ASSERT(b.size() == n);
  // Apply permutation, then L (unit lower) forward substitution.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm_[i]];
    for (std::size_t k = 0; k < i; ++k) acc -= lu_(i, k) * y[k];
    y[i] = acc;
  }
  // U backward substitution.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= lu_(ii, k) * x[k];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

double Lu::determinant() const {
  double det = sign_;
  for (std::size_t i = 0; i < dim(); ++i) det *= lu_(i, i);
  return det;
}

}  // namespace mfa::oracles
