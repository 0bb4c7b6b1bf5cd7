// Dense row-major matrix and vector types for the GP interior-point solver.
//
// The problems solved here are small (tens of variables), so the design
// favours clarity and checkability over cache blocking: bounds-asserted
// element access, value-semantic containers, no expression templates.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "support/assert.hpp"

namespace mfa::linalg {

/// Dense real vector with bounds-asserted access.
class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> init) : data_(init) {}

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  double& operator[](std::size_t i) {
    MFA_ASSERT(i < data_.size());
    return data_[i];
  }
  double operator[](std::size_t i) const {
    MFA_ASSERT(i < data_.size());
    return data_[i];
  }

  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);

  friend Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
  friend Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
  friend Vector operator*(Vector lhs, double s) { return lhs *= s; }
  friend Vector operator*(double s, Vector rhs) { return rhs *= s; }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  [[nodiscard]] auto begin() const { return data_.begin(); }
  [[nodiscard]] auto end() const { return data_.end(); }

 private:
  std::vector<double> data_;
};

/// Euclidean dot product; operands must have equal size.
double dot(const Vector& a, const Vector& b);

/// Maximum absolute entry; 0 for the empty vector.
double norm_inf(const Vector& v);

/// Dense row-major matrix with bounds-asserted access.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested braces; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    MFA_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    MFA_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
  friend Matrix operator*(Matrix lhs, double s) { return lhs *= s; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace mfa::linalg
