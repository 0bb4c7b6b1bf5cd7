// Resource-constraint sweeps — the vocabulary of the experiment behind
// Figs. 2–5.
//
// A sweep runs one solution method over a range of resource constraints
// and records, per point, the metrics the paper plots: II, average FPGA
// utilization, spreading, goal value, and solve time. Infeasible points
// (constraint too tight) are recorded as such, matching the figures'
// truncated curves at the low end. runtime::run_sweep (runtime/sweep.hpp)
// runs the grid.
#pragma once

#include <vector>

#include "alloc/gpa.hpp"
#include "solver/exact.hpp"

namespace mfa::alloc {

/// The three methods compared in Figs. 3–5.
enum class Method {
  kGpa,     ///< heuristic: GP + discretization + Algorithm 1
  kMinlp,   ///< exact, β = 0 (spreading ignored)
  kMinlpG,  ///< exact, α/β as given (II + spreading)
};

const char* method_name(Method m);

/// One sweep point (one x-value of a figure).
struct SweepPoint {
  double constraint = 0.0;    ///< resource constraint fraction (x-axis, a)
  bool feasible = false;
  /// True only when an exact search completed within budget at this
  /// point. GP+A points are heuristic and always report false.
  bool proved_optimal = false;
  double ii = 0.0;            ///< initiation interval, ms (y-axis)
  double avg_utilization = 0.0;  ///< mean per-FPGA utilization (x-axis, b)
  double phi = 0.0;
  double goal = 0.0;
  double seconds = 0.0;
};

struct SweepSeries {
  Method method = Method::kGpa;
  std::vector<SweepPoint> points;
};

struct SweepConfig {
  std::vector<double> constraints;  ///< fractions, e.g. 0.55 … 0.85
  GpaOptions gpa;
  solver::ExactOptions exact;
};

/// Range helper: fractions from lo to hi inclusive in steps of `step`.
std::vector<double> constraint_range(double lo, double hi, double step);

}  // namespace mfa::alloc
