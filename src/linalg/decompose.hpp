// Dense factorization used by the Newton steps of the GP solver.
//
// Cholesky (LLᵀ) with optional diagonal regularization covers the
// symmetric positive-definite Newton systems. The LU reference the tests
// check it against lives in tests/oracles/lu.hpp.
#pragma once

#include <optional>

#include "linalg/matrix.hpp"

namespace mfa::linalg {

/// Cholesky factorization A = L·Lᵀ of a symmetric positive-definite matrix.
///
/// `factor()` returns false when a non-positive pivot is met (A not PD
/// within tolerance); the object is then unusable. With `regularize > 0`
/// the factorization is of A + regularize·I, which the caller uses to keep
/// near-singular Newton systems solvable.
class Cholesky {
 public:
  /// Attempts the factorization; returns std::nullopt if A is not
  /// (numerically) positive definite.
  static std::optional<Cholesky> factor(const Matrix& a,
                                        double regularize = 0.0);

  /// Solves A·x = b using the stored factors.
  [[nodiscard]] Vector solve(const Vector& b) const;

  [[nodiscard]] std::size_t dim() const { return l_.rows(); }

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;  // lower triangular factor
};

/// Solves the symmetric positive-semidefinite system A·x = b, escalating
/// the diagonal regularization until Cholesky succeeds. Intended for
/// Newton systems where A is PSD by construction but may be rank
/// deficient. Returns std::nullopt only if even strong regularization
/// fails (pathological input).
std::optional<Vector> solve_spd(const Matrix& a, const Vector& b);

}  // namespace mfa::linalg
