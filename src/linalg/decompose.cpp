#include "linalg/decompose.hpp"

#include <algorithm>
#include <cmath>

namespace mfa::linalg {
namespace {

/// Cholesky factorization of a + regularize·I into the caller's l (which
/// must already be n×n). Only the lower triangle of l is written or read.
bool factor_into(const Matrix& a, double regularize, Matrix& l) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j) + regularize;
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0)) return false;  // also rejects NaN
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      l(i, j) = acc / l(j, j);
    }
  }
  return true;
}

}  // namespace

std::optional<Cholesky> Cholesky::factor(const Matrix& a, double regularize) {
  MFA_ASSERT(a.rows() == a.cols());
  Matrix l(a.rows(), a.rows());
  if (!factor_into(a, regularize, l)) return std::nullopt;
  return Cholesky(std::move(l));
}

Vector Cholesky::solve(const Vector& b) const {
  const std::size_t n = dim();
  MFA_ASSERT(b.size() == n);
  // Forward substitution L·y = b.
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l_(i, k) * y[k];
    y[i] = acc / l_(i, i);
  }
  // Backward substitution Lᵀ·x = y.
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l_(k, ii) * x[k];
    x[ii] = acc / l_(ii, ii);
  }
  return x;
}

std::optional<Vector> solve_spd(const Matrix& a, const Vector& b) {
  MFA_ASSERT(a.rows() == a.cols() && a.rows() == b.size());
  const std::size_t n = a.rows();
  Matrix l(n, n);
  Vector y(n);
  Vector x(n);
  // Scale regularization with the matrix magnitude (its largest |a_ij|)
  // so conditioning, not absolute size, decides when it kicks in.
  double magnitude = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      magnitude = std::max(magnitude, std::fabs(a(i, j)));
    }
  }
  const double scale = std::max(magnitude, 1.0);
  double reg = 0.0;
  for (int attempt = 0; attempt < 12; ++attempt) {
    if (!factor_into(a, reg, l)) {
      reg = (reg == 0.0) ? 1e-12 * scale : reg * 100.0;
      continue;
    }
    // Forward substitution L·y = b.
    for (std::size_t i = 0; i < n; ++i) {
      double acc = b[i];
      for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * y[k];
      y[i] = acc / l(i, i);
    }
    // Backward substitution Lᵀ·x = y.
    for (std::size_t ii = n; ii-- > 0;) {
      double acc = y[ii];
      for (std::size_t k = ii + 1; k < n; ++k) acc -= l(k, ii) * x[k];
      x[ii] = acc / l(ii, ii);
    }
    return x;
  }
  return std::nullopt;
}

}  // namespace mfa::linalg
