#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "solver/discretize.hpp"
#include "testutil.hpp"

namespace mfa::solver {
namespace {

using core::Platform;
using core::Problem;
using test::make_kernel;
using test::tiny_problem;

TEST(Discretizer, IntegralRelaxationPassesThrough) {
  // Relaxation already integral (resource bound hits exactly 4 CUs).
  Problem p;
  p.app.kernels = {make_kernel("k", 10.0, 0.0, 25.0, 0.0)};
  p.platform = Platform{"1", 1};
  auto r = Discretizer().run(p);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().totals, std::vector<int>{4});
  EXPECT_NEAR(r.value().ii, 2.5, 1e-9);
  EXPECT_TRUE(r.value().proved_optimal);
}

TEST(Discretizer, RoundsFractionalOptimally) {
  // Two identical kernels, DSP 30%/CU, one FPGA: relaxation gives
  // N̂ = 5/3 each; integral optimum is {2, 1} or {1, 2} with II = wcet.
  Problem p;
  p.app.kernels = {make_kernel("a", 10.0, 0.0, 30.0, 0.0),
                   make_kernel("b", 10.0, 0.0, 30.0, 0.0)};
  p.platform = Platform{"1", 1};
  auto r = Discretizer().run(p);
  ASSERT_TRUE(r.is_ok());
  const auto& totals = r.value().totals;
  EXPECT_EQ(totals[0] + totals[1], 3);
  EXPECT_NEAR(r.value().ii, 10.0, 1e-9);
  // Root relaxation is a valid lower bound.
  EXPECT_LE(r.value().relaxed_ii, r.value().ii + 1e-9);
}

TEST(Discretizer, LowerBoundTightness) {
  Problem p = tiny_problem();
  auto r = Discretizer().run(p);
  ASSERT_TRUE(r.is_ok());
  EXPECT_GE(r.value().ii, r.value().relaxed_ii - 1e-9);
  for (int n : r.value().totals) EXPECT_GE(n, 1);
}

TEST(Discretizer, InfeasibleRelaxationPropagates) {
  Problem p;
  p.app.kernels = {make_kernel("a", 1.0, 0.0, 60.0, 0.0),
                   make_kernel("b", 1.0, 0.0, 60.0, 0.0)};
  p.platform = Platform{"1", 1};
  auto r = Discretizer().run(p);
  EXPECT_EQ(r.status().code(), Code::kInfeasible);
}

TEST(Discretizer, NodeCapReported) {
  Problem p = tiny_problem();
  DiscretizeOptions opts;
  opts.max_nodes = 1;
  auto r = Discretizer(opts).run(p);
  // Either it finished in one node or it reports the cap.
  if (!r.is_ok()) {
    EXPECT_EQ(r.status().code(), Code::kLimit);
  } else {
    EXPECT_LE(r.value().nodes, 1);
  }
}

/// Oracle: brute-force the best integral totals under the pooled
/// constraints for tiny instances.
double brute_force_best_ii(const Problem& p) {
  const double f = p.num_fpgas();
  std::vector<int> caps(p.num_kernels());
  for (std::size_t k = 0; k < p.num_kernels(); ++k) {
    caps[k] = std::min(p.max_cu_total(k), 6);
  }
  std::vector<int> totals(p.num_kernels(), 1);
  double best = std::numeric_limits<double>::infinity();
  std::function<void(std::size_t)> rec = [&](std::size_t k) {
    if (k == p.num_kernels()) {
      core::ResourceVec pooled;
      double bw = 0.0;
      double ii = 0.0;
      for (std::size_t j = 0; j < totals.size(); ++j) {
        pooled += p.app.kernels[j].res * static_cast<double>(totals[j]);
        bw += p.app.kernels[j].bw * totals[j];
        ii = std::max(ii, p.app.kernels[j].wcet_ms / totals[j]);
      }
      if (pooled.fits_within(p.cap() * f, 1e-9) && bw <= f * p.bw_cap() + 1e-9) {
        best = std::min(best, ii);
      }
      return;
    }
    for (int n = 1; n <= caps[k]; ++n) {
      totals[k] = n;
      rec(k + 1);
    }
  };
  rec(0);
  return best;
}

/// Property: the branch-and-bound rounding finds the optimal integral
/// totals of the pooled problem (what the paper's §3.2.2 B&B promises).
class RandomDiscretize : public ::testing::TestWithParam<int> {};

TEST_P(RandomDiscretize, MatchesBruteForce) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 911u);
  test::RandomSpec spec;
  spec.max_kernels = 3;
  spec.max_fpgas = 2;
  Problem p = test::random_problem(rng, spec);
  // Keep per-kernel CU caps small so the oracle stays cheap.
  p.resource_fraction = std::max(p.resource_fraction, 0.6);

  auto r = Discretizer().run(p);
  const double oracle = brute_force_best_ii(p);
  if (!r.is_ok()) {
    EXPECT_TRUE(std::isinf(oracle));
    return;
  }
  ASSERT_TRUE(r.value().proved_optimal);
  // The oracle caps totals at 6 per kernel, so it can only be ≥ B&B.
  EXPECT_LE(r.value().ii, oracle + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDiscretize, ::testing::Range(1, 41));

}  // namespace
}  // namespace mfa::solver
