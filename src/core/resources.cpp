#include "core/resources.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace mfa::core {

const char* resource_name(Resource r) {
  switch (r) {
    case Resource::kBram:
      return "BRAM";
    case Resource::kDsp:
      return "DSP";
    case Resource::kLut:
      return "LUT";
    case Resource::kFf:
      return "FF";
  }
  return "?";
}

bool ResourceVec::fits_within(const ResourceVec& cap, double tolerance) const {
  for (std::size_t i = 0; i < kNumResources; ++i) {
    if (v_[i] > cap.v_[i] + tolerance) return false;
  }
  return true;
}

double ResourceVec::max_ratio(const ResourceVec& cap) const {
  double worst = 0.0;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    if (cap.v_[i] > 0.0) {
      worst = std::max(worst, v_[i] / cap.v_[i]);
    } else if (v_[i] > 0.0) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return worst;
}

int ResourceVec::max_multiples(const ResourceVec& cap, int limit) const {
  MFA_ASSERT(limit >= 0);
  int q = limit;
  for (std::size_t i = 0; i < kNumResources; ++i) {
    if (v_[i] <= 0.0) continue;
    if (cap.v_[i] <= 0.0) return 0;
    // Tiny relative slack absorbs accumulated floating-point error in
    // sums of table percentages (e.g. 3 × 33.33 vs cap 99.99).
    const double exact = cap.v_[i] * (1.0 + 1e-12) / v_[i];
    q = std::min(q, static_cast<int>(std::floor(exact + 1e-9)));
  }
  return std::max(q, 0);
}

double ResourceVec::max_axis() const {
  return *std::max_element(v_.begin(), v_.end());
}

bool ResourceVec::non_negative(double tolerance) const {
  return std::all_of(v_.begin(), v_.end(),
                     [tolerance](double x) { return x >= -tolerance; });
}

std::string ResourceVec::to_string() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "BRAM=%.2f DSP=%.2f LUT=%.2f FF=%.2f",
                v_[0], v_[1], v_[2], v_[3]);
  return buf;
}

}  // namespace mfa::core
