#include "gp/problem.hpp"

#include <cmath>

namespace mfa::gp {

double LseFunction::value(const linalg::Vector& y) const {
  MFA_ASSERT(y.size() == a.cols());
  // Max-shifted log-sum-exp for numerical stability.
  double zmax = -1e300;
  std::vector<double> z(terms());
  for (std::size_t r = 0; r < terms(); ++r) {
    double acc = b[r];
    for (std::size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * y[c];
    z[r] = acc;
    zmax = std::max(zmax, acc);
  }
  double sum = 0.0;
  for (double zi : z) sum += std::exp(zi - zmax);
  return zmax + std::log(sum);
}

void LseFunction::add_derivatives(const linalg::Vector& y, double t,
                                  linalg::Vector& grad,
                                  linalg::Matrix& hess) const {
  const std::size_t n = a.cols();
  MFA_ASSERT(grad.size() == n && hess.rows() == n && hess.cols() == n);
  // Softmax weights w_r = exp(z_r) / Σ exp(z).
  double zmax = -1e300;
  std::vector<double> z(terms());
  for (std::size_t r = 0; r < terms(); ++r) {
    double acc = b[r];
    for (std::size_t c = 0; c < n; ++c) acc += a(r, c) * y[c];
    z[r] = acc;
    zmax = std::max(zmax, acc);
  }
  double sum = 0.0;
  for (double& zi : z) {
    zi = std::exp(zi - zmax);
    sum += zi;
  }
  std::vector<double> w(terms());
  for (std::size_t r = 0; r < terms(); ++r) w[r] = z[r] / sum;

  // ∇F = Aᵀw;  ∇²F = Aᵀ(diag(w) − wwᵀ)A.
  linalg::Vector g(n);
  for (std::size_t r = 0; r < terms(); ++r) {
    if (w[r] == 0.0) continue;
    for (std::size_t c = 0; c < n; ++c) g[c] += w[r] * a(r, c);
  }
  for (std::size_t c = 0; c < n; ++c) grad[c] += t * g[c];

  for (std::size_t r = 0; r < terms(); ++r) {
    if (w[r] == 0.0) continue;
    for (std::size_t i = 0; i < n; ++i) {
      const double wa = t * w[r] * a(r, i);
      if (wa == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) hess(i, j) += wa * a(r, j);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double tg = t * g[i];
    if (tg == 0.0) continue;
    for (std::size_t j = 0; j < n; ++j) hess(i, j) -= tg * g[j];
  }
}

VarId GpProblem::add_variable(std::string name) {
  names_.push_back(std::move(name));
  return static_cast<VarId>(names_.size() - 1);
}

void GpProblem::set_objective(Posynomial objective) {
  MFA_ASSERT_MSG(!objective.empty(), "objective must be non-empty");
  objective_ = std::move(objective);
}

void GpProblem::add_le1(Posynomial p, std::string label) {
  MFA_ASSERT_MSG(!p.empty(), "constraint must be non-empty");
  constraints_.push_back(std::move(p));
  labels_.push_back(std::move(label));
}

LseFunction GpProblem::compile(const Posynomial& p) const {
  const std::size_t rows = p.terms().size();
  LseFunction f;
  f.a = linalg::Matrix(rows, num_variables());
  f.b = linalg::Vector(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const Monomial& m = p.terms()[r];
    f.b[r] = std::log(m.coeff());
    for (const auto& [v, e] : m.exponents()) {
      MFA_ASSERT_MSG(v < num_variables(), "monomial uses unknown variable");
      f.a(r, v) = e;
    }
  }
  return f;
}

}  // namespace mfa::gp
