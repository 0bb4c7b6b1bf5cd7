#include "oracles/sweep.hpp"

#include <chrono>

namespace mfa::oracles {

alloc::SweepSeries run_sweep(const core::Problem& problem,
                             alloc::Method method,
                             const alloc::SweepConfig& config) {
  alloc::SweepSeries series;
  series.method = method;
  series.points.reserve(config.constraints.size());

  for (double constraint : config.constraints) {
    core::Problem point_problem = problem;
    point_problem.resource_fraction = constraint;
    if (method == alloc::Method::kMinlp) point_problem.beta = 0.0;

    alloc::SweepPoint point;
    point.constraint = constraint;
    const auto t0 = std::chrono::steady_clock::now();

    if (method == alloc::Method::kGpa) {
      alloc::GpaSolver solver(config.gpa);
      if (StatusOr<alloc::GpaResult> r = solver.solve(point_problem);
          r.is_ok()) {
        const alloc::GpaResult& res = r.value();
        point.feasible = true;
        point.proved_optimal = false;  // heuristic: completion is no proof
        point.ii = res.allocation.ii();
        point.avg_utilization = res.allocation.average_utilization();
        point.phi = res.allocation.phi();
        point.goal = res.allocation.goal();
      }
    } else {
      solver::ExactSolver solver(config.exact);
      if (StatusOr<solver::ExactResult> r = solver.solve(point_problem);
          r.is_ok()) {
        const solver::ExactResult& res = r.value();
        point.feasible = true;
        point.proved_optimal = res.proved_optimal;
        point.ii = res.ii;
        point.avg_utilization = res.allocation.average_utilization();
        point.phi = res.phi;
        point.goal = res.goal;
      }
    }
    point.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    series.points.push_back(point);
  }
  return series;
}

}  // namespace mfa::oracles
