#include "gp/expr.hpp"

#include <cmath>

namespace mfa::gp {

double Monomial::eval(const std::vector<double>& x) const {
  double value = coeff_;
  for (const auto& [v, e] : exponents_) {
    MFA_ASSERT(v < x.size());
    MFA_ASSERT_MSG(x[v] > 0.0, "GP evaluation requires x > 0");
    // Fast-path the exponents allocation models are made of (x, x², 1/x):
    // a multiply or divide instead of a ~20× costlier std::pow.
    if (e == 1.0) {
      value *= x[v];
    } else if (e == 2.0) {
      value *= x[v] * x[v];
    } else if (e == -1.0) {
      value /= x[v];
    } else {
      value *= std::pow(x[v], e);
    }
  }
  return value;
}

Monomial& Monomial::operator*=(const Monomial& rhs) {
  coeff_ *= rhs.coeff_;
  for (const auto& [v, e] : rhs.exponents_) {
    const double merged = exponents_[v] + e;
    if (merged == 0.0) {
      exponents_.erase(v);
    } else {
      exponents_[v] = merged;
    }
  }
  return *this;
}

Monomial Monomial::pow(double p) const {
  Monomial out(std::pow(coeff_, p));
  for (const auto& [v, e] : exponents_) {
    if (e * p != 0.0) out.exponents_[v] = e * p;
  }
  return out;
}

double Posynomial::eval(const std::vector<double>& x) const {
  double acc = 0.0;
  for (const Monomial& m : terms_) acc += m.eval(x);
  return acc;
}

Posynomial& Posynomial::operator+=(const Posynomial& rhs) {
  terms_.insert(terms_.end(), rhs.terms_.begin(), rhs.terms_.end());
  return *this;
}

Posynomial& Posynomial::operator*=(const Monomial& m) {
  for (Monomial& t : terms_) t *= m;
  return *this;
}

Posynomial& Posynomial::operator*=(double s) {
  for (Monomial& t : terms_) t *= s;
  return *this;
}

}  // namespace mfa::gp
