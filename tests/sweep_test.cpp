#include <gtest/gtest.h>

#include "alloc/sweep.hpp"
#include "hls/paper.hpp"
#include "runtime/sweep.hpp"
#include "testutil.hpp"

namespace mfa::alloc {
namespace {

/// One method over `config`'s constraints through the batch sweep.
SweepSeries sweep(const core::Problem& problem, Method method,
                  const SweepConfig& config) {
  runtime::SweepOptions options;
  options.num_threads = 2;
  options.config = config;
  return runtime::run_sweep(problem, method, options);
}

TEST(ConstraintRange, InclusiveStepping) {
  const std::vector<double> r = constraint_range(0.55, 0.85, 0.10);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_NEAR(r.front(), 0.55, 1e-12);
  EXPECT_NEAR(r.back(), 0.85, 1e-12);
}

TEST(MethodName, StableLabels) {
  EXPECT_STREQ(method_name(Method::kGpa), "GP+A");
  EXPECT_STREQ(method_name(Method::kMinlp), "MINLP");
  EXPECT_STREQ(method_name(Method::kMinlpG), "MINLP+G");
}

TEST(Sweep, GpaSeriesOnTinyProblem) {
  SweepConfig cfg;
  cfg.constraints = constraint_range(0.6, 1.0, 0.2);
  SweepSeries s = sweep(test::tiny_problem(), Method::kGpa, cfg);
  ASSERT_EQ(s.points.size(), 3u);
  for (const SweepPoint& pt : s.points) {
    EXPECT_TRUE(pt.feasible);
    EXPECT_GT(pt.ii, 0.0);
    EXPECT_GT(pt.avg_utilization, 0.0);
  }
}

TEST(Sweep, MinlpForcesBetaZero) {
  // kMinlp must ignore the problem's spreading weight: its goal is pure
  // II at each point.
  core::Problem p = test::tiny_problem();
  p.beta = 10.0;
  SweepConfig cfg;
  cfg.constraints = {0.8};
  SweepSeries s = sweep(p, Method::kMinlp, cfg);
  ASSERT_EQ(s.points.size(), 1u);
  ASSERT_TRUE(s.points[0].feasible);
  EXPECT_NEAR(s.points[0].goal, s.points[0].ii, 1e-9);
}

TEST(Sweep, InfeasiblePointsAreMarked) {
  core::Problem p = test::tiny_problem();
  SweepConfig cfg;
  // 10 % of an FPGA cannot host kernel a (DSP 20 %).
  cfg.constraints = {0.10, 0.90};
  SweepSeries s = sweep(p, Method::kMinlpG, cfg);
  ASSERT_EQ(s.points.size(), 2u);
  EXPECT_FALSE(s.points[0].feasible);
  EXPECT_TRUE(s.points[1].feasible);
}

TEST(Sweep, ExactIiWeaklyBelowGpaOnPaperCase) {
  // The Fig. 3 relationship at each common feasible point.
  core::Problem p = hls::paper::case_alex16_2fpga();
  SweepConfig cfg;
  cfg.constraints = constraint_range(0.60, 0.80, 0.10);
  SweepSeries gpa = sweep(p, Method::kGpa, cfg);
  SweepSeries minlp = sweep(p, Method::kMinlp, cfg);
  for (std::size_t i = 0; i < cfg.constraints.size(); ++i) {
    if (!gpa.points[i].feasible || !minlp.points[i].feasible) continue;
    EXPECT_GE(gpa.points[i].ii, minlp.points[i].ii * (1.0 - 1e-9))
        << "at constraint " << cfg.constraints[i];
  }
}

}  // namespace
}  // namespace mfa::alloc
