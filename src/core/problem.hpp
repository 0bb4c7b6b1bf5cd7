// The multi-FPGA allocation problem instance (paper §3, Table 1),
// generalized to heterogeneous platforms.
//
// An Application is a linear pipeline of kernels, each characterized by
// its one-CU worst-case execution time (WCET_k), per-CU resource vector
// (R_k) and per-CU DRAM bandwidth (B_k). A Platform is F FPGAs drawn
// from one or more *device classes* — the paper's platform is the
// special case of a single class (F identical FPGAs with one capacity
// vector and one bandwidth cap); mixed fleets assign each FPGA a class
// with its own caps. A Problem adds the swept "resource constraint"
// fraction and the objective weights α, β of eq. 5.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/resources.hpp"
#include "support/status.hpp"

namespace mfa::core {

/// One pipeline stage, characterized per CU (rows of Tables 2–3).
struct Kernel {
  std::string name;
  double wcet_ms = 0.0;  ///< latency with a single CU (ms), eq. 1
  ResourceVec res;       ///< resources per CU, % of one FPGA (R_k)
  double bw = 0.0;       ///< DRAM bandwidth per CU, % of one FPGA (B_k)
};

/// A linear task-level pipeline of kernels (paper's K).
struct Application {
  std::string name;
  std::vector<Kernel> kernels;

  [[nodiscard]] std::size_t size() const { return kernels.size(); }

  /// Σ_k WCET_k — the single-CU pipeline II (useful scale reference).
  [[nodiscard]] double total_wcet() const;

  /// Σ_k R_k and Σ_k B_k — the "SUM" rows of Tables 2–3.
  [[nodiscard]] ResourceVec total_resources() const;
  [[nodiscard]] double total_bw() const;
};

/// One device generation in a mixed fleet: its own capacity vector and
/// DRAM bandwidth cap, in the same "% of one (reference) FPGA" units as
/// kernel demands.
struct DeviceClass {
  std::string name;
  ResourceVec capacity = ResourceVec::uniform(100.0);
  double bw_capacity = 100.0;
};

/// F FPGAs, homogeneous (e.g. the AWS F1 instance of Fig. 1) or mixed.
///
/// Homogeneous platforms use `capacity`/`bw_capacity` and leave
/// `classes` empty — the seed representation, preserved bit-for-bit.
/// Heterogeneous platforms list their device classes and map each FPGA
/// to one via `class_of` (size == num_fpgas); `capacity`/`bw_capacity`
/// are then ignored.
struct Platform {
  std::string name;
  int num_fpgas = 1;
  ResourceVec capacity = ResourceVec::uniform(100.0);  ///< full FPGA = 100 %
  double bw_capacity = 100.0;                          ///< full DRAM BW

  std::vector<DeviceClass> classes;  ///< empty ⇒ homogeneous
  std::vector<int> class_of;         ///< per-FPGA class index

  /// Builds a mixed platform; asserts `class_of` matches and indexes
  /// into `classes`. A single class is *still* stored heterogeneously —
  /// solvers treat it identically to the homogeneous encoding.
  static Platform heterogeneous(std::string name,
                                std::vector<DeviceClass> classes,
                                std::vector<int> class_of);

  [[nodiscard]] bool homogeneous() const { return classes.empty(); }
  [[nodiscard]] std::size_t num_classes() const {
    return classes.empty() ? 1 : classes.size();
  }

  /// Structural validity: at least one FPGA, non-negative capacities,
  /// and a class assignment that covers every FPGA (when mixed).
  /// Problem::validate() delegates here; online platform changes (the
  /// allocation service's ResizePlatform) check it before committing.
  [[nodiscard]] Status validate() const;

  /// Class of FPGA f (0 for every FPGA of a homogeneous platform).
  [[nodiscard]] int class_index(int f) const;

  /// Full capacity vector / bandwidth cap of FPGA f.
  [[nodiscard]] const ResourceVec& fpga_capacity(int f) const;
  [[nodiscard]] double fpga_bw_capacity(int f) const;
};

/// A complete problem instance: application + platform + constraint
/// fractions + objective weights.
struct Problem {
  Application app;
  Platform platform;

  /// The swept "Resource Constraint (%)" of Figs. 2–5, as a fraction of
  /// the platform capacity applied uniformly to all resource axes (R in
  /// eq. 9 is capacity · resource_fraction).
  double resource_fraction = 1.0;

  /// Fraction of the DRAM bandwidth cap available to CUs (B in eq. 10).
  /// The paper's sweeps keep this at 1.
  double bw_fraction = 1.0;

  double alpha = 1.0;  ///< II weight in eq. 5
  double beta = 0.0;   ///< spreading weight in eq. 5

  [[nodiscard]] std::size_t num_kernels() const { return app.size(); }
  [[nodiscard]] int num_fpgas() const { return platform.num_fpgas; }

  /// Effective resource cap R_f of FPGA f (eq. 9 right-hand side,
  /// per-device on heterogeneous platforms).
  [[nodiscard]] ResourceVec cap(int f) const {
    return platform.fpga_capacity(f) * resource_fraction;
  }
  /// Effective bandwidth cap B_f of FPGA f (eq. 10 right-hand side).
  [[nodiscard]] double bw_cap(int f) const {
    return platform.fpga_bw_capacity(f) * bw_fraction;
  }

  /// Homogeneous-platform effective caps (the seed API). Valid only when
  /// the platform has a single device class; heterogeneous callers must
  /// use the per-FPGA overloads or the pooled caps.
  [[nodiscard]] ResourceVec cap() const {
    MFA_ASSERT_MSG(platform.homogeneous(),
                   "cap() on a heterogeneous platform — use cap(f)");
    return platform.capacity * resource_fraction;
  }
  [[nodiscard]] double bw_cap() const {
    MFA_ASSERT_MSG(platform.homogeneous(),
                   "bw_cap() on a heterogeneous platform — use bw_cap(f)");
    return platform.bw_capacity * bw_fraction;
  }

  /// Σ_f cap(f) / Σ_f bw_cap(f) — the right-hand sides of the pooled
  /// relaxation constraints (eqs. 17–18). Computed as F·cap on
  /// homogeneous platforms so seed arithmetic is reproduced bit-for-bit.
  [[nodiscard]] ResourceVec pooled_cap() const;
  [[nodiscard]] double pooled_bw_cap() const;

  /// Largest number of CUs of kernel k that fit on (empty) FPGA f under
  /// the effective caps. Zero means kernel k cannot use FPGA f.
  [[nodiscard]] int max_cu_per_fpga(std::size_t k, int f) const;

  /// Largest per-FPGA fit across the platform (the roomiest device).
  /// Zero means kernel k is unplaceable anywhere.
  [[nodiscard]] int max_cu_per_fpga(std::size_t k) const;

  /// Upper bound on N_k: Σ_f max_cu_per_fpga(k, f).
  [[nodiscard]] int max_cu_total(std::size_t k) const;

  /// Structural validation: non-empty pipeline, positive WCETs,
  /// non-negative demands, F ≥ 1, positive caps, a well-formed class
  /// assignment, and at least one CU of every kernel placeable on some
  /// FPGA (a necessary feasibility condition).
  [[nodiscard]] Status validate() const;
};

}  // namespace mfa::core
