#include <random>

#include <gtest/gtest.h>

#include "hls/paper.hpp"
#include "oracles/reference_packing.hpp"
#include "solver/packing.hpp"
#include "testutil.hpp"

namespace mfa::solver {
namespace {

using core::Platform;
using core::Problem;
using test::make_kernel;
using test::tiny_problem;

Budget unlimited() { return Budget(); }

TEST(MinChunks, CapacityForcedSplitting) {
  Problem p;
  p.app.kernels = {make_kernel("k", 1.0, 0.0, 30.0, 0.0)};
  p.platform = Platform{"4", 4};
  // 30% per CU within 100% cap → 3 per FPGA.
  EXPECT_EQ(min_chunks(p, 0, 3), 1);
  EXPECT_EQ(min_chunks(p, 0, 4), 2);
  EXPECT_EQ(min_chunks(p, 0, 7), 3);
  EXPECT_EQ(min_chunks(p, 0, 0), 0);
}

TEST(PhiLowerBound, MostUnequalSplit) {
  Problem p;
  p.app.kernels = {make_kernel("k", 1.0, 0.0, 30.0, 0.0)};
  p.platform = Platform{"4", 4};
  // 3 CUs on one FPGA: 3/4.
  EXPECT_NEAR(phi_lower_bound(p, 0, 3), 0.75, 1e-12);
  // 4 CUs must split 3+1: 3/4 + 1/2.
  EXPECT_NEAR(phi_lower_bound(p, 0, 4), 0.75 + 0.5, 1e-12);
  // 7 CUs split 3+3+1.
  EXPECT_NEAR(phi_lower_bound(p, 0, 7), 0.75 + 0.75 + 0.5, 1e-12);
}

TEST(PackingSolver, TrivialFeasible) {
  Problem p = tiny_problem();
  PackingSolver packer(p);
  Budget budget = unlimited();
  PackingResult r = packer.pack({1, 1, 1}, PackingMode::kFeasibility, budget);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proved_optimal);
  EXPECT_TRUE(r.allocation->feasible());
}

TEST(PackingSolver, DetectsPooledInfeasibility) {
  Problem p = tiny_problem();  // cap 80% per FPGA, DSP 20/15/10 per CU
  PackingSolver packer(p);
  Budget budget = unlimited();
  // 20 CUs of kernel a → 400% DSP ≫ 160% pooled.
  PackingResult r = packer.pack({20, 1, 1}, PackingMode::kFeasibility,
                                budget);
  EXPECT_FALSE(r.feasible);
  EXPECT_TRUE(r.proved_optimal);
}

TEST(PackingSolver, DetectsFragmentationInfeasibility) {
  // Two kernels of 60% DSP each: pooled 120 ≤ 2×100 but each FPGA fits
  // only one — three CUs of either kernel cannot pack.
  Problem p;
  p.app.kernels = {make_kernel("a", 1.0, 0.0, 60.0, 0.0),
                   make_kernel("b", 1.0, 0.0, 60.0, 0.0)};
  p.platform = Platform{"2", 2};
  PackingSolver packer(p);
  Budget budget = unlimited();
  EXPECT_TRUE(
      packer.pack({1, 1}, PackingMode::kFeasibility, budget).feasible);
  EXPECT_FALSE(
      packer.pack({2, 1}, PackingMode::kFeasibility, budget).feasible);
}

TEST(PackingSolver, BandwidthLimitsPacking) {
  Problem p;
  p.app.kernels = {make_kernel("a", 1.0, 1.0, 1.0, 40.0)};
  p.platform = Platform{"2", 2};
  PackingSolver packer(p);
  Budget budget = unlimited();
  // 2 CUs per FPGA by bandwidth (2×40 ≤ 100 < 3×40) → 4 fit, 5 do not.
  EXPECT_TRUE(
      packer.pack({4}, PackingMode::kFeasibility, budget).feasible);
  EXPECT_FALSE(
      packer.pack({5}, PackingMode::kFeasibility, budget).feasible);
}

TEST(PackingSolver, MinSpreadingPrefersOneFpga) {
  Problem p = tiny_problem();
  PackingSolver packer(p);
  Budget budget = unlimited();
  PackingResult r =
      packer.pack({2, 1, 1}, PackingMode::kMinSpreading, budget);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.proved_optimal);
  // Everything fits on one FPGA: φ = max_k N_k/(1+N_k) = 2/3.
  EXPECT_NEAR(r.phi, 2.0 / 3.0, 1e-12);
  EXPECT_EQ(r.allocation->fpgas_used_by(0), 1);
}

TEST(PackingSolver, MinSpreadingMatchesForcedSplit) {
  // 4 CUs of a 30% kernel on 100% FPGAs: must split 3+1 at best.
  Problem p;
  p.app.kernels = {make_kernel("a", 1.0, 0.0, 30.0, 0.0)};
  p.platform = Platform{"2", 2};
  PackingSolver packer(p);
  Budget budget = unlimited();
  PackingResult r = packer.pack({4}, PackingMode::kMinSpreading, budget);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.phi, 0.75 + 0.5, 1e-12);
}

TEST(PackingSolver, SpreadingNeverBelowStaticBound) {
  Problem p = tiny_problem();
  PackingSolver packer(p);
  Budget budget = unlimited();
  const std::vector<int> totals{3, 2, 2};
  PackingResult r = packer.pack(totals, PackingMode::kMinSpreading, budget);
  ASSERT_TRUE(r.feasible);
  double lb = 0.0;
  for (std::size_t k = 0; k < totals.size(); ++k) {
    lb = std::max(lb, phi_lower_bound(p, k, totals[k]));
  }
  EXPECT_GE(r.phi, lb - 1e-9);
}

TEST(PackingSolver, BudgetAbortsAreReported) {
  Problem p = tiny_problem();
  PackingSolver packer(p);
  Budget budget = Budget::nodes_only(1);
  PackingResult r =
      packer.pack({3, 2, 2}, PackingMode::kMinSpreading, budget);
  EXPECT_FALSE(r.proved_optimal);
}

TEST(PackingSolver, ZeroTotalsAllowed) {
  Problem p = tiny_problem();
  PackingSolver packer(p);
  Budget budget = unlimited();
  PackingResult r = packer.pack({0, 1, 0}, PackingMode::kMinSpreading,
                                budget);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.allocation->total_cu(0), 0);
  EXPECT_EQ(r.allocation->total_cu(1), 1);
}

/// VGG-16 on eight FPGAs at fraction 0.93, and the minimal totals for
/// II = 8.475 ms: a pack no small node cap lets finish (neither mode
/// decides it within 2,000,000 nodes).
Problem vgg_093() {
  Problem p = hls::paper::case_vgg_8fpga();
  p.resource_fraction = 0.93;
  return p;
}
const std::vector<int> kVggTotals = {4, 8, 2, 3, 4, 1, 3, 4, 4,
                                     1, 3, 5, 5, 1, 3, 3, 3};
constexpr PackingMode kModes[] = {PackingMode::kFeasibility,
                                  PackingMode::kMinSpreading};

TEST(PackingBudget, NodeCapChargesTheRefusedNode) {
  const Problem p = vgg_093();
  for (const PackingMode mode : kModes) {
    for (const std::int64_t cap : {0, 1, 7, 1000}) {
      Budget budget = Budget::nodes_only(cap);
      const PackingResult r = PackingSolver(p).pack(kVggTotals, mode, budget);
      EXPECT_FALSE(r.proved_optimal) << "cap " << cap;
      // Like Budget::tick(): the node past the cap is charged, refused.
      EXPECT_EQ(budget.nodes_used(), cap + 1) << "cap " << cap;
    }
  }
}

TEST(PackingBudget, CapOfExactlyItsNodeCountLetsASearchFinish) {
  // VGG-16 at fraction 0.751, minimal totals for II = 11.4 ms: a
  // min-spreading pack of about 25,000 nodes, so several 1,024-node
  // batches pass before the cap binds.
  Problem p = hls::paper::case_vgg_8fpga();
  p.resource_fraction = 0.751;
  const std::vector<int> totals = {3, 6, 2, 2, 3, 1, 2, 3, 3,
                                   1, 3, 4, 4, 1, 2, 2, 2};
  Budget free_run = unlimited();
  const PackingResult full =
      PackingSolver(p).pack(totals, PackingMode::kMinSpreading, free_run);
  ASSERT_TRUE(full.proved_optimal);
  const std::int64_t nodes = free_run.nodes_used();
  ASSERT_GT(nodes, 3 * 1024);

  Budget exact = Budget::nodes_only(nodes);
  const PackingResult capped =
      PackingSolver(p).pack(totals, PackingMode::kMinSpreading, exact);
  EXPECT_TRUE(capped.proved_optimal);
  EXPECT_EQ(capped.phi, full.phi);
  EXPECT_EQ(exact.nodes_used(), nodes);
  EXPECT_FALSE(exact.exhausted());

  Budget one_short = Budget::nodes_only(nodes - 1);
  const PackingResult cut =
      PackingSolver(p).pack(totals, PackingMode::kMinSpreading, one_short);
  EXPECT_FALSE(cut.proved_optimal);
  EXPECT_EQ(one_short.nodes_used(), nodes);
  EXPECT_TRUE(one_short.exhausted());
}

TEST(PackingBudget, ExpiredBudgetStopsAtTheFirstNode) {
  const Problem p = vgg_093();
  for (const PackingMode mode : kModes) {
    Budget budget = Budget::nodes_only(1'000'000);
    budget.expire();
    const PackingResult r = PackingSolver(p).pack(kVggTotals, mode, budget);
    EXPECT_FALSE(r.proved_optimal);
    EXPECT_EQ(budget.nodes_used(), 1);
  }
}

TEST(PackingBudget, PassedDeadlineStopsTheSearchByNode1024) {
  const Problem p = vgg_093();
  for (const PackingMode mode : kModes) {
    Budget budget(1'000'000'000, 0.0);
    const PackingResult r = PackingSolver(p).pack(kVggTotals, mode, budget);
    EXPECT_FALSE(r.proved_optimal);
    EXPECT_GE(budget.nodes_used(), 1);
    EXPECT_LE(budget.nodes_used(), 1024);
    EXPECT_TRUE(budget.exhausted());
  }
}

TEST(PackingBounds, ProveVggAt056InfeasibleWithin1000Nodes) {
  // VGG-16 at fraction 0.56, minimal totals for II = 16.45 ms. Without
  // the capacity-count bounds neither mode decides this pack within
  // 500,000 nodes; with them both prove it infeasible.
  Problem p = hls::paper::case_vgg_8fpga();
  p.resource_fraction = 0.56;
  const std::vector<int> totals = {2, 5, 1, 2, 2, 1, 2, 2, 2,
                                   1, 2, 3, 3, 1, 2, 2, 2};
  for (const PackingMode mode : kModes) {
    Budget budget = Budget::nodes_only(1000);
    const PackingResult r = PackingSolver(p).pack(totals, mode, budget);
    EXPECT_TRUE(r.proved_optimal);
    EXPECT_FALSE(r.feasible);
    EXPECT_LE(budget.nodes_used(), 1000);
  }
}

/// Packs `totals` with PackingSolver and with the reference search
/// without the capacity-count bounds, in both modes: a pack that tiles
/// its FPGAs exactly must stay feasible, with the same rows.
void expect_tiling_survives_the_bounds(const Problem& p,
                                       const std::vector<int>& totals) {
  for (const PackingMode mode : kModes) {
    Budget budget = unlimited();
    const PackingResult got = PackingSolver(p).pack(totals, mode, budget);
    Budget reference_budget = unlimited();
    const PackingResult want = oracles::reference_pack(
        p, totals, mode, reference_budget, nullptr,
        oracles::CountBounds::kOff);
    ASSERT_TRUE(want.feasible);
    ASSERT_TRUE(got.feasible);
    EXPECT_TRUE(got.proved_optimal);
    EXPECT_EQ(got.phi, want.phi);
    for (std::size_t k = 0; k < totals.size(); ++k) {
      for (int f = 0; f < p.num_fpgas(); ++f) {
        EXPECT_EQ(got.allocation->cu(k, f), want.allocation->cu(k, f))
            << "kernel " << k << " FPGA " << f;
      }
    }
  }
}

TEST(PackingBounds, ExactTilingOfThirdsStaysFeasible) {
  // Three CUs of 33.33 % BRAM fill a 99.99 % FPGA exactly, so every
  // FPGA of the pack is full to the last bit of its capacity.
  Problem p;
  p.app.kernels = {make_kernel("a", 1.0, 33.33, 1.0, 0.0),
                   make_kernel("b", 1.0, 33.33, 2.0, 0.0)};
  p.platform = Platform{"2", 2};
  p.platform.capacity = core::ResourceVec::uniform(99.99);
  expect_tiling_survives_the_bounds(p, {4, 2});
}

TEST(PackingBounds, ExactTilingOfDspQuartersStaysFeasible) {
  // Four 15 % DSP CUs fill the 60 % an FPGA offers at fraction 0.6.
  Problem p;
  p.app.kernels = {make_kernel("a", 1.0, 0.0, 15.0, 0.0),
                   make_kernel("b", 1.0, 1.0, 15.0, 0.0),
                   make_kernel("c", 1.0, 2.0, 15.0, 0.0)};
  p.platform = Platform{"3", 3};
  p.resource_fraction = 0.6;
  expect_tiling_survives_the_bounds(p, {5, 4, 3});
}

/// The rows of an allocation in StabilityOptions::reference layout.
std::vector<std::vector<int>> rows_of(const core::Allocation& a) {
  std::vector<std::vector<int>> rows(a.num_kernels());
  for (std::size_t k = 0; k < a.num_kernels(); ++k) {
    rows[k].resize(static_cast<std::size_t>(a.num_fpgas()));
    for (int f = 0; f < a.num_fpgas(); ++f) {
      rows[k][static_cast<std::size_t>(f)] = a.cu(k, f);
    }
  }
  return rows;
}

TEST(PackingStability, NullStabilityMatchesUnconstrained) {
  Problem p = tiny_problem();
  PackingSolver packer(p);
  Budget b1 = unlimited();
  Budget b2 = unlimited();
  const PackingResult plain =
      packer.pack({3, 2, 2}, PackingMode::kMinSpreading, b1);
  const PackingResult with_null = packer.pack(
      {3, 2, 2}, PackingMode::kMinSpreading, b2, /*stability=*/nullptr);
  ASSERT_TRUE(plain.feasible);
  ASSERT_TRUE(with_null.feasible);
  EXPECT_EQ(plain.phi, with_null.phi);  // bit-identical search
  EXPECT_EQ(rows_of(*plain.allocation), rows_of(*with_null.allocation));
}

TEST(PackingStability, UnconstrainedReferenceMatchesPlainSearch) {
  // Budgets off + zero cost: the stability bookkeeping must not perturb
  // the search result even with a reference present.
  Problem p = tiny_problem();
  PackingSolver packer(p);
  Budget b1 = unlimited();
  const PackingResult plain =
      packer.pack({3, 2, 2}, PackingMode::kMinSpreading, b1);
  ASSERT_TRUE(plain.feasible);
  StabilityOptions stab;
  stab.reference = rows_of(*plain.allocation);
  std::rotate(stab.reference.begin(), stab.reference.begin() + 1,
              stab.reference.end());  // some other incumbent
  Budget b2 = unlimited();
  const PackingResult r = packer.pack(
      {3, 2, 2}, PackingMode::kMinSpreading, b2, &stab);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.phi, plain.phi);
  EXPECT_EQ(rows_of(*r.allocation), rows_of(*plain.allocation));
}

TEST(PackingStability, ZeroBudgetsReproduceTheReference) {
  Problem p = tiny_problem();
  PackingSolver packer(p);
  Budget b1 = unlimited();
  const PackingResult incumbent =
      packer.pack({3, 2, 2}, PackingMode::kMinSpreading, b1);
  ASSERT_TRUE(incumbent.feasible);

  StabilityOptions stab;
  stab.reference = rows_of(*incumbent.allocation);
  stab.max_moves = 0;
  stab.max_disturbed = 0;
  Budget b2 = unlimited();
  const PackingResult r = packer.pack(
      {3, 2, 2}, PackingMode::kMinSpreading, b2, &stab);
  ASSERT_TRUE(r.feasible);
  // Same totals and zero torn CUs force the rows to match exactly.
  EXPECT_EQ(r.cus_moved, 0);
  EXPECT_EQ(r.disturbed, 0);
  EXPECT_EQ(rows_of(*r.allocation), rows_of(*incumbent.allocation));
}

TEST(PackingStability, ShrinkingTotalsAgainstZeroMovesIsInfeasible) {
  Problem p = tiny_problem();
  PackingSolver packer(p);
  Budget b1 = unlimited();
  const PackingResult incumbent =
      packer.pack({3, 2, 2}, PackingMode::kMinSpreading, b1);
  ASSERT_TRUE(incumbent.feasible);

  // Kernel 0 shrinks 3 → 2: at least one CU must be torn down wherever
  // the survivors sit, so a zero-move budget has no feasible placement.
  StabilityOptions stab;
  stab.reference = rows_of(*incumbent.allocation);
  stab.max_moves = 0;
  Budget b2 = unlimited();
  const PackingResult r = packer.pack(
      {2, 2, 2}, PackingMode::kMinSpreading, b2, &stab);
  EXPECT_FALSE(r.feasible);

  // One allowed move makes it feasible again, and the report says so.
  stab.max_moves = 1;
  Budget b3 = unlimited();
  const PackingResult loose = packer.pack(
      {2, 2, 2}, PackingMode::kMinSpreading, b3, &stab);
  ASSERT_TRUE(loose.feasible);
  EXPECT_EQ(loose.cus_moved, 1);
  EXPECT_LE(loose.disturbed, 1);
}

TEST(PackingStability, ExemptGroupMovesForFree) {
  Problem p = tiny_problem();
  PackingSolver packer(p);
  Budget b1 = unlimited();
  const PackingResult incumbent =
      packer.pack({3, 2, 2}, PackingMode::kMinSpreading, b1);
  ASSERT_TRUE(incumbent.feasible);

  // Same shrink as above, but kernel 0 belongs to the exempt group (it
  // is the event's own target): its tear-down is not counted.
  StabilityOptions stab;
  stab.reference = rows_of(*incumbent.allocation);
  stab.group_of = {0, 1, 1};
  stab.exempt_group = 0;
  stab.max_moves = 0;
  stab.max_disturbed = 0;
  Budget b2 = unlimited();
  const PackingResult r = packer.pack(
      {2, 2, 2}, PackingMode::kMinSpreading, b2, &stab);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.cus_moved, 0);
  EXPECT_EQ(r.disturbed, 0);
  // The non-exempt kernels stayed exactly in place.
  EXPECT_EQ(rows_of(*r.allocation)[1], stab.reference[1]);
  EXPECT_EQ(rows_of(*r.allocation)[2], stab.reference[2]);
}

TEST(PackingStability, EmptyReferenceRowIsExempt) {
  Problem p = tiny_problem();
  PackingSolver packer(p);
  Budget b1 = unlimited();
  const PackingResult incumbent =
      packer.pack({3, 2, 2}, PackingMode::kMinSpreading, b1);
  ASSERT_TRUE(incumbent.feasible);

  // A new arrival has no incumbent placement: an empty row never
  // counts, whatever it forces the others to do stays the constraint.
  StabilityOptions stab;
  stab.reference = rows_of(*incumbent.allocation);
  stab.reference[0].clear();
  stab.max_moves = 0;
  stab.max_disturbed = 0;
  Budget b2 = unlimited();
  const PackingResult r = packer.pack(
      {2, 2, 2}, PackingMode::kMinSpreading, b2, &stab);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.cus_moved, 0);
  EXPECT_EQ(r.disturbed, 0);
}

TEST(PackingStability, MoveCostPrefersTheIncumbentPlacement) {
  // One kernel, 2 CUs on 2 FPGAs: spreading 1+1 minimizes φ (2·1/2 = 1
  // over max — per-kernel φ_k = 1/2 + 1/2 = 1) vs 2 on one FPGA
  // (2/3 < 1)... so kMinSpreading puts both on one FPGA. Seed the
  // reference on the OTHER FPGA: with zero cost the search is free to
  // land anywhere φ-optimal; a hefty move cost must pull it onto the
  // reference device.
  Problem p;
  p.app.kernels = {make_kernel("k", 8.0, 10.0, 20.0, 5.0)};
  p.platform = Platform{"2", 2};
  PackingSolver packer(p);

  StabilityOptions stab;
  stab.reference = {{0, 2}};  // incumbent holds both CUs on FPGA 1
  stab.move_cost = 10.0;
  Budget b1 = unlimited();
  const PackingResult r =
      packer.pack({2}, PackingMode::kMinSpreading, b1, &stab);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.cus_moved, 0);
  EXPECT_EQ(r.allocation->cu(0, 1), 2);  // stayed on the incumbent FPGA
  // φ was not sacrificed: 2-on-one-FPGA is φ-optimal on either device.
  Budget b2 = unlimited();
  const PackingResult plain =
      packer.pack({2}, PackingMode::kMinSpreading, b2);
  EXPECT_EQ(r.phi, plain.phi);
}

/// Oracle: exhaustive enumeration of all placements for tiny instances.
/// Returns the minimal φ, or nullopt if no feasible placement exists.
std::optional<double> brute_force_min_phi(const Problem& p,
                                          const std::vector<int>& totals) {
  const int fpgas = p.num_fpgas();
  const std::size_t kernels = totals.size();
  std::vector<std::vector<int>> counts(kernels,
                                       std::vector<int>(fpgas, 0));
  std::optional<double> best;

  // Enumerate compositions of each total across FPGAs, recursively.
  std::function<void(std::size_t, int, int)> rec_kernel_fpga;
  std::function<void(std::size_t)> rec_kernel = [&](std::size_t k) {
    if (k == kernels) {
      // Check capacity.
      for (int f = 0; f < fpgas; ++f) {
        core::ResourceVec used;
        double bw = 0.0;
        for (std::size_t j = 0; j < kernels; ++j) {
          used += p.app.kernels[j].res * static_cast<double>(counts[j][f]);
          bw += p.app.kernels[j].bw * counts[j][f];
        }
        if (!used.fits_within(p.cap(), 1e-9) || bw > p.bw_cap() + 1e-9) {
          return;
        }
      }
      double phi = 0.0;
      for (std::size_t j = 0; j < kernels; ++j) {
        double pk = 0.0;
        for (int f = 0; f < fpgas; ++f) {
          pk += static_cast<double>(counts[j][f]) / (1.0 + counts[j][f]);
        }
        phi = std::max(phi, pk);
      }
      if (!best || phi < *best) best = phi;
      return;
    }
    rec_kernel_fpga(k, 0, totals[k]);
  };
  rec_kernel_fpga = [&](std::size_t k, int f, int rem) {
    if (f == fpgas) {
      if (rem == 0) rec_kernel(k + 1);
      return;
    }
    for (int c = 0; c <= rem; ++c) {
      counts[k][f] = c;
      rec_kernel_fpga(k, f + 1, rem - c);
      counts[k][f] = 0;
    }
  };
  rec_kernel(0);
  return best;
}

/// Property: the branch-and-bound packing equals brute force on random
/// tiny instances — validating both the symmetry breaking and pruning.
class RandomPacking : public ::testing::TestWithParam<int> {};

TEST_P(RandomPacking, MatchesBruteForce) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 6151u);
  Problem p = test::random_problem(rng);
  std::uniform_int_distribution<int> tot(0, 3);
  std::vector<int> totals(p.num_kernels());
  for (int& t : totals) t = tot(rng);

  Budget budget = unlimited();
  PackingResult r =
      PackingSolver(p).pack(totals, PackingMode::kMinSpreading, budget);
  ASSERT_TRUE(r.proved_optimal);

  std::optional<double> oracle = brute_force_min_phi(p, totals);
  ASSERT_EQ(r.feasible, oracle.has_value());
  if (oracle) {
    EXPECT_NEAR(r.phi, *oracle, 1e-9);
    // The returned allocation must realize the reported φ and respect
    // the caps.
    EXPECT_NEAR(r.allocation->phi(), r.phi, 1e-12);
    for (std::size_t k = 0; k < totals.size(); ++k) {
      EXPECT_EQ(r.allocation->total_cu(k), totals[k]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPacking, ::testing::Range(1, 41));

}  // namespace
}  // namespace mfa::solver
