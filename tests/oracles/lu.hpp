// Parity oracle for linalg's Cholesky path: dense LU with partial
// pivoting, P·A = L·U.
//
// The library solves only symmetric positive-(semi)definite Newton
// systems (linalg::Cholesky, linalg::solve_spd). LU makes no symmetry
// assumption, so agreeing with it on random SPD systems checks the
// Cholesky solve independently (RandomSpdTest.CholeskyAndLuAgree).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/matrix.hpp"

namespace mfa::oracles {

/// LU factorization with partial pivoting, P·A = L·U.
class Lu {
 public:
  /// Attempts the factorization; returns std::nullopt for (numerically)
  /// singular matrices.
  static std::optional<Lu> factor(const linalg::Matrix& a);

  /// Solves A·x = b using the stored factors.
  [[nodiscard]] linalg::Vector solve(const linalg::Vector& b) const;

  /// Determinant of A (product of pivots with permutation sign).
  [[nodiscard]] double determinant() const;

  [[nodiscard]] std::size_t dim() const { return lu_.rows(); }

 private:
  Lu(linalg::Matrix lu, std::vector<std::size_t> perm, int sign)
      : lu_(std::move(lu)), perm_(std::move(perm)), sign_(sign) {}
  linalg::Matrix lu_;              // packed L (unit diag) and U
  std::vector<std::size_t> perm_;  // row permutation
  int sign_;                       // permutation parity
};

}  // namespace mfa::oracles
