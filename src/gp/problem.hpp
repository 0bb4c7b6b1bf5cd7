// Geometric-program container and its log-space compilation.
//
// Standard form: minimize posynomial f0(x) subject to posynomial
// constraints f_i(x) ≤ 1, over x > 0. The relaxation model (eqs. 14–18)
// needs no monomial equalities, which keeps the solver free of an
// equality-constrained Newton path.
//
// The log-space compilation maps each posynomial to a log-sum-exp function
//   F(y) = log Σ_t exp(A_t·y + b_t),  y = log x,
// which is the form consumed by gp::GpSolver.
#pragma once

#include <string>
#include <vector>

#include "gp/expr.hpp"
#include "linalg/matrix.hpp"

namespace mfa::gp {

/// One log-sum-exp function F(y) = log Σ_r exp(row_r(A)·y + b_r).
struct LseFunction {
  linalg::Matrix a;  ///< terms × variables exponent matrix
  linalg::Vector b;  ///< per-term log coefficients

  /// Number of summed exponential terms.
  [[nodiscard]] std::size_t terms() const { return a.rows(); }

  /// F(y); numerically stable (max-shifted) log-sum-exp.
  [[nodiscard]] double value(const linalg::Vector& y) const;

  /// Appends t·∇F(y) to grad and t·∇²F(y) weighted into hess (softmax
  /// gradient/Hessian); used by the barrier Newton assembly.
  void add_derivatives(const linalg::Vector& y, double t, linalg::Vector& grad,
                       linalg::Matrix& hess) const;
};

/// A GP in standard form, built incrementally.
class GpProblem {
 public:
  /// Registers a decision variable; the name is kept for diagnostics.
  VarId add_variable(std::string name);

  [[nodiscard]] std::size_t num_variables() const { return names_.size(); }
  [[nodiscard]] const std::string& name(VarId v) const {
    MFA_ASSERT(v < names_.size());
    return names_[v];
  }

  /// Sets the posynomial objective (minimized). Must be non-empty.
  void set_objective(Posynomial objective);

  /// Adds the constraint p(x) ≤ 1.
  void add_le1(Posynomial p, std::string label = {});

  [[nodiscard]] const Posynomial& objective() const { return objective_; }
  [[nodiscard]] const std::vector<Posynomial>& constraints() const {
    return constraints_;
  }
  [[nodiscard]] const std::string& constraint_label(std::size_t i) const {
    MFA_ASSERT(i < labels_.size());
    return labels_[i];
  }

  /// Compiles a posynomial into its log-space form over this problem's
  /// variable set.
  [[nodiscard]] LseFunction compile(const Posynomial& p) const;

 private:
  std::vector<std::string> names_;
  Posynomial objective_;
  std::vector<Posynomial> constraints_;
  std::vector<std::string> labels_;
};

}  // namespace mfa::gp
