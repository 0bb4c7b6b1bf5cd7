// Monomial / posynomial expression types for geometric programming.
//
// A monomial is  c · Π_j x_j^{a_j}  with c > 0; a posynomial is a sum of
// monomials. Variables are integer ids handed out by GpProblem; exponents
// are stored sparsely so typical allocation models (each constraint touches
// a few variables) stay compact.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "support/assert.hpp"

namespace mfa::gp {

/// Opaque id of a GP decision variable (index into the problem's registry).
using VarId = std::uint32_t;

/// A positive-coefficient monomial  c · Π x_j^{a_j}.
class Monomial {
 public:
  /// Constant monomial. Coefficient must be strictly positive (GP domain).
  explicit Monomial(double coeff = 1.0) : coeff_(coeff) {
    MFA_ASSERT_MSG(coeff > 0.0, "monomial coefficient must be > 0");
  }

  /// The bare variable x_v.
  static Monomial var(VarId v) {
    Monomial m;
    m.exponents_[v] = 1.0;
    return m;
  }

  [[nodiscard]] double coeff() const { return coeff_; }
  [[nodiscard]] const std::map<VarId, double>& exponents() const {
    return exponents_;
  }

  /// Evaluates at the given positive point (indexed by VarId).
  [[nodiscard]] double eval(const std::vector<double>& x) const;

  Monomial& operator*=(const Monomial& rhs);
  Monomial& operator*=(double s) {
    MFA_ASSERT_MSG(s > 0.0, "monomial scale must be > 0");
    coeff_ *= s;
    return *this;
  }
  Monomial& operator/=(const Monomial& rhs) { return *this *= rhs.inverse(); }

  /// Monomial raised to a real power (monomials are closed under powers).
  [[nodiscard]] Monomial pow(double p) const;
  [[nodiscard]] Monomial inverse() const { return pow(-1.0); }

  friend Monomial operator*(Monomial lhs, const Monomial& rhs) {
    return lhs *= rhs;
  }
  friend Monomial operator*(Monomial lhs, double s) { return lhs *= s; }
  friend Monomial operator*(double s, Monomial rhs) { return rhs *= s; }
  friend Monomial operator/(Monomial lhs, const Monomial& rhs) {
    return lhs /= rhs;
  }

 private:
  double coeff_ = 1.0;
  std::map<VarId, double> exponents_;  // ordered for canonical printing
};

/// A sum of monomials (closed under +, and under · by a monomial).
class Posynomial {
 public:
  Posynomial() = default;
  Posynomial(const Monomial& m) : terms_{m} {}  // NOLINT implicit by design
  Posynomial(double c) : terms_{Monomial(c)} {}  // NOLINT implicit by design

  [[nodiscard]] const std::vector<Monomial>& terms() const { return terms_; }
  [[nodiscard]] bool empty() const { return terms_.empty(); }

  [[nodiscard]] double eval(const std::vector<double>& x) const;

  Posynomial& operator+=(const Posynomial& rhs);
  Posynomial& operator*=(const Monomial& m);
  Posynomial& operator*=(double s);

  friend Posynomial operator+(Posynomial lhs, const Posynomial& rhs) {
    return lhs += rhs;
  }
  friend Posynomial operator*(Posynomial lhs, const Monomial& m) {
    return lhs *= m;
  }
  friend Posynomial operator*(const Monomial& m, Posynomial rhs) {
    return rhs *= m;
  }
  friend Posynomial operator*(Posynomial lhs, double s) { return lhs *= s; }
  friend Posynomial operator*(double s, Posynomial rhs) { return rhs *= s; }

 private:
  std::vector<Monomial> terms_;
};

/// Monomials sum to posynomials (ADL cannot see Posynomial's operator+
/// when both operands are monomials, so it is provided explicitly).
inline Posynomial operator+(const Monomial& a, const Monomial& b) {
  return Posynomial(a) + Posynomial(b);
}
inline Posynomial operator+(const Monomial& a, double c) {
  return Posynomial(a) + Posynomial(c);
}
inline Posynomial operator+(double c, const Monomial& a) {
  return Posynomial(c) + Posynomial(a);
}

}  // namespace mfa::gp
