#include <random>

#include <gtest/gtest.h>

#include "alloc/gpa.hpp"
#include "hls/paper.hpp"
#include "solver/exact.hpp"
#include "testutil.hpp"

namespace mfa::alloc {
namespace {

using core::Problem;
using test::tiny_problem;

TEST(GpaSolver, EndToEndOnTiny) {
  Problem p = tiny_problem();
  auto r = GpaSolver().solve(p);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const GpaResult& g = r.value();
  EXPECT_TRUE(g.allocation.feasible());
  // Stage chain is consistent: relaxation ≤ discretized ≤ realized II
  // (drops can only raise the realized II).
  EXPECT_LE(g.relaxed_ii, g.discrete_ii + 1e-9);
  EXPECT_LE(g.discrete_ii, g.allocation.ii() + 1e-9);
  EXPECT_EQ(g.totals.size(), p.num_kernels());
  EXPECT_GE(g.seconds_total(), 0.0);
}

TEST(GpaSolver, BisectionRootAgreesWithGpStepReference) {
  // The interior-point reference lands on GP+A's root, and discretizing
  // from it yields GP+A's totals.
  Problem p = tiny_problem();
  auto a = GpaSolver().solve(p);
  auto gp_root = core::solve_relaxation_gp(p);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(gp_root.is_ok());
  EXPECT_NEAR(a.value().relaxed_ii, gp_root.value().ii,
              1e-3 * a.value().relaxed_ii);
  auto b = solver::Discretizer().run(p, gp_root.value());
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(a.value().totals, b.value().totals);
}

TEST(GpaSolver, PropagatesInvalidProblem) {
  Problem p = tiny_problem();
  p.app.kernels.clear();
  auto r = GpaSolver().solve(p);
  EXPECT_EQ(r.status().code(), Code::kInvalid);
}

TEST(GpaSolver, PropagatesInfeasibility) {
  Problem p = tiny_problem();
  p.app.kernels[0].res[core::Resource::kDsp] = 95.0;  // cap 80
  auto r = GpaSolver().solve(p);
  EXPECT_EQ(r.status().code(), Code::kInfeasible);
}

TEST(GpaSolver, NeverBeatsExactOptimum) {
  // The heuristic can only be ≥ the exact β=0 optimum on II.
  for (double rc : {0.6, 0.75, 0.9}) {
    Problem p = hls::paper::case_alex16_2fpga();
    p.resource_fraction = rc;
    p.beta = 0.0;
    auto heuristic = GpaSolver().solve(p);
    auto exact = solver::ExactSolver().solve(p);
    ASSERT_TRUE(heuristic.is_ok());
    ASSERT_TRUE(exact.is_ok());
    ASSERT_TRUE(exact.value().proved_optimal);
    EXPECT_GE(heuristic.value().allocation.ii(),
              exact.value().ii * (1.0 - 1e-9))
        << "rc=" << rc;
  }
}

TEST(GpaSolver, TracksExactWithinPaperMargins) {
  // §4: GP+A "tracks well MINLP and in particular it catches the
  // extremes"; the worst divergence the paper reports is ~25 %.
  Problem p = hls::paper::case_alex16_2fpga();
  p.resource_fraction = 0.85;
  auto heuristic = GpaSolver().solve(p);
  auto exact = solver::ExactSolver().solve(p);
  ASSERT_TRUE(heuristic.is_ok());
  ASSERT_TRUE(exact.is_ok());
  EXPECT_LE(heuristic.value().allocation.ii(),
            exact.value().ii * 1.35);
}

TEST(GpaSolver, PaperCasesSolveFast) {
  // §4: GP+A runs in seconds (0.78–4.4 s on 2011 hardware); even our
  // simulated pipeline must stay well under a second per case.
  for (Problem p : {hls::paper::case_alex16_2fpga(),
                    hls::paper::case_alex32_4fpga(),
                    hls::paper::case_vgg_8fpga()}) {
    p.resource_fraction = 0.7;
    auto r = GpaSolver().solve(p);
    ASSERT_TRUE(r.is_ok()) << p.app.name;
    EXPECT_LT(r.value().seconds_total(), 1.0) << p.app.name;
  }
}

/// Property: GP+A produces a feasible allocation (or a clean status) on
/// random instances, and never reports II below the relaxation bound.
class RandomGpa : public ::testing::TestWithParam<int> {};

TEST_P(RandomGpa, FeasibleAndBounded) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 15101u);
  Problem p = test::random_problem(rng);
  auto r = GpaSolver().solve(p);
  if (!r.is_ok()) {
    EXPECT_NE(r.status().code(), Code::kOk);
    return;
  }
  EXPECT_TRUE(r.value().allocation.feasible());
  EXPECT_GE(r.value().allocation.ii(), r.value().relaxed_ii - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGpa, ::testing::Range(1, 31));

}  // namespace
}  // namespace mfa::alloc
