// Multi-dimensional FPGA resource vectors.
//
// The paper's cost model is multi-dimensional: each CU consumes DSPs,
// BRAMs, LUTs and FFs (plus DRAM bandwidth, which the formulation keeps as
// its own constraint axis, eq. 10). All quantities are expressed as a
// percentage of one FPGA, exactly like the paper's Tables 2–3.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "support/assert.hpp"

namespace mfa::core {

/// The FPGA resource classes tracked per CU (eq. 9's R_k is this vector).
enum class Resource : std::size_t { kBram = 0, kDsp = 1, kLut = 2, kFf = 3 };

inline constexpr std::size_t kNumResources = 4;

/// Stable display name ("BRAM", "DSP", "LUT", "FF").
const char* resource_name(Resource r);

/// A vector over the four resource classes, in % of one FPGA.
class ResourceVec {
 public:
  constexpr ResourceVec() : v_{} {}

  /// Convenience constructor in table order (BRAM, DSP, LUT, FF).
  constexpr ResourceVec(double bram, double dsp, double lut, double ff)
      : v_{bram, dsp, lut, ff} {}

  /// The same value on every axis (e.g. a uniform capacity).
  static constexpr ResourceVec uniform(double value) {
    return ResourceVec(value, value, value, value);
  }

  double& operator[](Resource r) { return v_[static_cast<std::size_t>(r)]; }
  double operator[](Resource r) const {
    return v_[static_cast<std::size_t>(r)];
  }
  double& axis(std::size_t i) {
    MFA_ASSERT(i < kNumResources);
    return v_[i];
  }
  [[nodiscard]] double axis(std::size_t i) const {
    MFA_ASSERT(i < kNumResources);
    return v_[i];
  }

  // Inline: the packing search and Algorithm 1 update slack vectors at
  // every node and placement.
  ResourceVec& operator+=(const ResourceVec& rhs) {
    for (std::size_t i = 0; i < kNumResources; ++i) v_[i] += rhs.v_[i];
    return *this;
  }
  ResourceVec& operator-=(const ResourceVec& rhs) {
    for (std::size_t i = 0; i < kNumResources; ++i) v_[i] -= rhs.v_[i];
    return *this;
  }
  ResourceVec& operator*=(double s) {
    for (double& x : v_) x *= s;
    return *this;
  }

  friend ResourceVec operator+(ResourceVec lhs, const ResourceVec& rhs) {
    return lhs += rhs;
  }
  friend ResourceVec operator-(ResourceVec lhs, const ResourceVec& rhs) {
    return lhs -= rhs;
  }
  friend ResourceVec operator*(ResourceVec lhs, double s) { return lhs *= s; }
  friend ResourceVec operator*(double s, ResourceVec rhs) { return rhs *= s; }
  friend bool operator==(const ResourceVec& a, const ResourceVec& b) {
    return a.v_ == b.v_;
  }

  /// True iff every axis of *this is ≤ the corresponding axis of cap,
  /// within an absolute tolerance (resource percentages are sums of
  /// table constants, so exact comparison would be brittle).
  [[nodiscard]] bool fits_within(const ResourceVec& cap,
                                 double tolerance = 1e-9) const;

  /// max_axis (this[axis] / cap[axis]); axes with cap = 0 require
  /// this = 0 on that axis (else returns +inf). The "utilization" of an
  /// FPGA in the paper's figures is this value for the used resources.
  [[nodiscard]] double max_ratio(const ResourceVec& cap) const;

  /// Largest integer q ≥ 0 with q·(*this) fitting inside cap;
  /// returns `limit` if *this is zero on all capped axes.
  [[nodiscard]] int max_multiples(const ResourceVec& cap, int limit) const;

  /// Largest axis value.
  [[nodiscard]] double max_axis() const;

  /// True when every axis is ≥ 0.
  [[nodiscard]] bool non_negative(double tolerance = 1e-9) const;

  /// "BRAM=.. DSP=.. LUT=.. FF=.." (fixed, two decimals) for diagnostics.
  [[nodiscard]] std::string to_string() const;

 private:
  std::array<double, kNumResources> v_;
};

}  // namespace mfa::core
