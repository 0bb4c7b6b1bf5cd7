#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

namespace mfa::linalg {

Vector& Vector::operator+=(const Vector& rhs) {
  MFA_ASSERT(size() == rhs.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  MFA_ASSERT(size() == rhs.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

double dot(const Vector& a, const Vector& b) {
  MFA_ASSERT(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm_inf(const Vector& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    MFA_ASSERT_MSG(row.size() == cols_, "ragged initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  MFA_ASSERT(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

}  // namespace mfa::linalg
