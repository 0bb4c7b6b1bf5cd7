// Shared helpers for the mfalloc test suite: seeded random problem
// instances (small enough for the naive oracle), convenience builders,
// and temporary directories for the WAL tests.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <random>
#include <string>
#include <system_error>
#include <vector>

#include "core/problem.hpp"

namespace mfa::test {

/// Fresh directory under the system temp dir, unique per test
/// process and tag, removed on destruction.
struct TempDir {
  explicit TempDir(const std::string& tag)
      : path((std::filesystem::temp_directory_path() /
              ("mfa_test_" + tag + "_" + std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string path;
};

/// Deterministic kernel builder (BRAM/DSP axes, % of one FPGA).
inline core::Kernel make_kernel(const std::string& name, double wcet_ms,
                                double bram, double dsp, double bw) {
  return core::Kernel{name, wcet_ms, core::ResourceVec(bram, dsp, 0.0, 0.0),
                      bw};
}

/// A small fully-specified problem used by many unit tests: three
/// kernels, two FPGAs, generous caps.
inline core::Problem tiny_problem() {
  core::Problem p;
  p.app.name = "tiny";
  p.app.kernels = {
      make_kernel("a", 8.0, 10.0, 20.0, 5.0),
      make_kernel("b", 12.0, 8.0, 15.0, 4.0),
      make_kernel("c", 4.0, 5.0, 10.0, 8.0),
  };
  p.platform = core::Platform{"2fpga", 2};
  p.resource_fraction = 0.8;
  p.alpha = 1.0;
  p.beta = 0.5;
  return p;
}

struct RandomSpec {
  int min_kernels = 2;
  int max_kernels = 4;
  int min_fpgas = 1;
  int max_fpgas = 3;
  double max_wcet = 20.0;
  double max_res = 40.0;  ///< per-CU axis demand upper bound (%)
  double max_bw = 15.0;
  double min_fraction = 0.5;
  double max_beta = 2.0;
};

/// Random problem small enough for the naive MINLP oracle. Guaranteed to
/// pass Problem::validate() (each kernel fits at least one CU).
inline core::Problem random_problem(std::mt19937& rng,
                                    const RandomSpec& spec = {}) {
  std::uniform_int_distribution<int> kdist(spec.min_kernels,
                                           spec.max_kernels);
  std::uniform_int_distribution<int> fdist(spec.min_fpgas, spec.max_fpgas);
  std::uniform_real_distribution<double> u(0.0, 1.0);

  core::Problem p;
  p.platform = core::Platform{"rand", fdist(rng)};
  p.resource_fraction =
      spec.min_fraction + (1.0 - spec.min_fraction) * u(rng);
  p.alpha = 1.0;
  p.beta = u(rng) < 0.5 ? 0.0 : spec.max_beta * u(rng);

  const int num_kernels = kdist(rng);
  const double cap = 100.0 * p.resource_fraction;
  for (int k = 0; k < num_kernels; ++k) {
    core::Kernel kern;
    kern.name = "k" + std::to_string(k);
    kern.wcet_ms = 0.5 + spec.max_wcet * u(rng);
    // Demands capped below the effective cap so one CU always fits.
    kern.res[core::Resource::kBram] = std::min(spec.max_res * u(rng),
                                               cap * 0.9);
    kern.res[core::Resource::kDsp] = std::min(spec.max_res * u(rng),
                                              cap * 0.9);
    kern.bw = std::min(spec.max_bw * u(rng), 90.0);
    p.app.kernels.push_back(kern);
  }
  return p;
}

}  // namespace mfa::test
