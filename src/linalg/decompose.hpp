// Dense factorizations used by the Newton steps of the GP solver.
//
// Cholesky (LLᵀ) with optional diagonal regularization covers the
// symmetric positive-definite Newton systems; LU with partial pivoting is
// the general fallback and the reference used in tests.
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

/// LU factorization with partial pivoting, P·A = L·U.
class Lu {
 public:
  /// Attempts the factorization; returns std::nullopt for (numerically)
  /// singular matrices.
  static std::optional<Lu> factor(const Matrix& a);

  /// Solves A·x = b using the stored factors.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Determinant of A (product of pivots with permutation sign).
  [[nodiscard]] double determinant() const;

  [[nodiscard]] std::size_t dim() const { return lu_.rows(); }

 private:
  Lu(Matrix lu, std::vector<std::size_t> perm, int sign)
      : lu_(std::move(lu)), perm_(std::move(perm)), sign_(sign) {}
  Matrix lu_;                       // packed L (unit diag) and U
  std::vector<std::size_t> perm_;  // row permutation
  int sign_;                       // permutation parity
};

/// Solves the symmetric positive-semidefinite system A·x = b, escalating
/// the diagonal regularization until Cholesky succeeds. Intended for
/// Newton systems where A is PSD by construction but may be rank
/// deficient. Returns std::nullopt only if even strong regularization
/// fails (pathological input).
std::optional<Vector> solve_spd(const Matrix& a, const Vector& b);

}  // namespace mfa::linalg
