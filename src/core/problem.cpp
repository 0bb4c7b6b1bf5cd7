#include "core/problem.hpp"

#include <cmath>

namespace mfa::core {

double Application::total_wcet() const {
  double acc = 0.0;
  for (const Kernel& k : kernels) acc += k.wcet_ms;
  return acc;
}

ResourceVec Application::total_resources() const {
  ResourceVec acc;
  for (const Kernel& k : kernels) acc += k.res;
  return acc;
}

double Application::total_bw() const {
  double acc = 0.0;
  for (const Kernel& k : kernels) acc += k.bw;
  return acc;
}

Platform Platform::heterogeneous(std::string name,
                                 std::vector<DeviceClass> classes,
                                 std::vector<int> class_of) {
  MFA_ASSERT_MSG(!classes.empty(), "heterogeneous platform needs classes");
  MFA_ASSERT_MSG(!class_of.empty(), "heterogeneous platform needs FPGAs");
  for (int c : class_of) {
    MFA_ASSERT_MSG(c >= 0 && c < static_cast<int>(classes.size()),
                   "class_of index out of range");
  }
  Platform p;
  p.name = std::move(name);
  p.num_fpgas = static_cast<int>(class_of.size());
  p.classes = std::move(classes);
  p.class_of = std::move(class_of);
  return p;
}

int Platform::class_index(int f) const {
  MFA_ASSERT(f >= 0 && f < num_fpgas);
  if (classes.empty()) return 0;
  MFA_ASSERT_MSG(class_of.size() == static_cast<std::size_t>(num_fpgas),
                 "class_of size mismatch (validate() first)");
  return class_of[static_cast<std::size_t>(f)];
}

const ResourceVec& Platform::fpga_capacity(int f) const {
  if (classes.empty()) {
    MFA_ASSERT(f >= 0 && f < num_fpgas);
    return capacity;
  }
  return classes[static_cast<std::size_t>(class_index(f))].capacity;
}

double Platform::fpga_bw_capacity(int f) const {
  if (classes.empty()) {
    MFA_ASSERT(f >= 0 && f < num_fpgas);
    return bw_capacity;
  }
  return classes[static_cast<std::size_t>(class_index(f))].bw_capacity;
}

ResourceVec Problem::pooled_cap() const {
  if (platform.homogeneous()) {
    // Multiplication, not summation: bit-parity with the seed's F·R.
    return cap() * static_cast<double>(num_fpgas());
  }
  ResourceVec acc;
  for (int f = 0; f < num_fpgas(); ++f) acc += cap(f);
  return acc;
}

double Problem::pooled_bw_cap() const {
  if (platform.homogeneous()) {
    return bw_cap() * static_cast<double>(num_fpgas());
  }
  double acc = 0.0;
  for (int f = 0; f < num_fpgas(); ++f) acc += bw_cap(f);
  return acc;
}

int Problem::max_cu_per_fpga(std::size_t k, int f) const {
  MFA_ASSERT(k < app.size());
  const Kernel& kern = app.kernels[k];
  // A CU with zero demand on every axis could replicate without bound;
  // cap at a generous constant so search spaces stay finite.
  constexpr int kUnboundedCus = 1024;
  int q = kern.res.max_multiples(cap(f), kUnboundedCus);
  if (kern.bw > 0.0) {
    const double by_bw = bw_cap(f) * (1.0 + 1e-12) / kern.bw;
    q = std::min(q, static_cast<int>(std::floor(by_bw + 1e-9)));
  }
  return std::max(q, 0);
}

int Problem::max_cu_per_fpga(std::size_t k) const {
  // Every FPGA of a class fits the same count; probe one per class.
  int best = 0;
  if (platform.homogeneous()) return max_cu_per_fpga(k, 0);
  std::vector<bool> seen(platform.num_classes(), false);
  for (int f = 0; f < num_fpgas(); ++f) {
    const auto c = static_cast<std::size_t>(platform.class_index(f));
    if (seen[c]) continue;
    seen[c] = true;
    best = std::max(best, max_cu_per_fpga(k, f));
  }
  return best;
}

int Problem::max_cu_total(std::size_t k) const {
  if (platform.homogeneous()) {
    return num_fpgas() * max_cu_per_fpga(k, 0);
  }
  int total = 0;
  for (int f = 0; f < num_fpgas(); ++f) total += max_cu_per_fpga(k, f);
  return total;
}

Status Platform::validate() const {
  if (num_fpgas < 1) {
    return {Code::kInvalid, "platform must have at least one FPGA"};
  }
  if (homogeneous()) {
    if (!class_of.empty()) {
      return {Code::kInvalid,
              "platform has a class assignment but no device classes"};
    }
    if (!capacity.non_negative() || bw_capacity < 0.0) {
      return {Code::kInvalid, "platform capacities must be non-negative"};
    }
  } else {
    if (class_of.size() != static_cast<std::size_t>(num_fpgas)) {
      return {Code::kInvalid,
              "platform 'class_of' must assign every FPGA a class"};
    }
    for (int c : class_of) {
      if (c < 0 || c >= static_cast<int>(classes.size())) {
        return {Code::kInvalid, "platform 'class_of' index out of range"};
      }
    }
    for (const DeviceClass& dc : classes) {
      if (!dc.capacity.non_negative() || dc.bw_capacity < 0.0) {
        return {Code::kInvalid, "device class '" + dc.name +
                                    "' has negative capacities"};
      }
    }
  }
  return Status::ok();
}

Status validate_kernel(const Kernel& kern) {
  if (!(kern.wcet_ms > 0.0) || !std::isfinite(kern.wcet_ms)) {
    return {Code::kInvalid, "kernel '" + kern.name +
                                "' must have a positive finite WCET"};
  }
  if (!kern.res.non_negative() || kern.bw < 0.0) {
    return {Code::kInvalid,
            "kernel '" + kern.name + "' has negative resource demand"};
  }
  return Status::ok();
}

Status Problem::validate() const {
  if (app.kernels.empty()) {
    return {Code::kInvalid, "application has no kernels"};
  }
  if (Status platform_valid = platform.validate(); !platform_valid.is_ok()) {
    return platform_valid;
  }
  if (resource_fraction <= 0.0 || bw_fraction <= 0.0) {
    return {Code::kInvalid, "constraint fractions must be positive"};
  }
  if (alpha < 0.0 || beta < 0.0) {
    return {Code::kInvalid, "objective weights must be non-negative"};
  }
  for (std::size_t k = 0; k < app.size(); ++k) {
    const Kernel& kern = app.kernels[k];
    if (Status kernel_valid = validate_kernel(kern); !kernel_valid.is_ok()) {
      return kernel_valid;
    }
    if (max_cu_per_fpga(k) < 1) {
      return {Code::kInfeasible, "kernel '" + kern.name +
                                     "' cannot place even one CU under the "
                                     "resource constraint"};
    }
  }
  return Status::ok();
}

}  // namespace mfa::core
