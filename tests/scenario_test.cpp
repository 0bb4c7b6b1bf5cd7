// Heterogeneous-platform and scenario-generator coverage: JSON
// round-trips of mixed-class platforms, homogeneous parity with the
// seed behavior, generator determinism, cache-key sensitivity to the
// class vector, and the ISSUE-3 acceptance scenario (a fixed-seed
// mixed 2-class instance solved by GP+A, exact and naive).
#include <gtest/gtest.h>

#include "alloc/gpa.hpp"
#include "core/fingerprint.hpp"
#include "core/problem.hpp"
#include "core/relaxation.hpp"
#include "hls/paper.hpp"
#include "io/serialize.hpp"
#include "scenario/generate.hpp"
#include "solver/exact.hpp"
#include "solver/naive.hpp"
#include "testutil.hpp"

namespace mfa {
namespace {

using core::DeviceClass;
using core::Platform;
using core::Problem;
using core::Resource;
using core::ResourceVec;

/// A hand-built 2-class, 3-FPGA problem: one full device, two half
/// devices with reduced DRAM.
Problem mixed_problem() {
  Problem p;
  p.app.name = "mixed";
  p.app.kernels = {
      test::make_kernel("a", 8.0, 10.0, 20.0, 5.0),
      test::make_kernel("b", 12.0, 8.0, 15.0, 4.0),
      test::make_kernel("c", 4.0, 35.0, 10.0, 8.0),
  };
  DeviceClass big{"big", ResourceVec::uniform(100.0), 100.0};
  DeviceClass small{"small", ResourceVec::uniform(50.0), 60.0};
  p.platform = Platform::heterogeneous("mix", {big, small}, {0, 1, 1});
  p.resource_fraction = 0.8;
  p.alpha = 1.0;
  p.beta = 0.5;
  return p;
}

TEST(Platform, PerFpgaAccessors) {
  const Problem p = mixed_problem();
  EXPECT_FALSE(p.platform.homogeneous());
  EXPECT_EQ(p.platform.num_classes(), 2u);
  EXPECT_EQ(p.platform.class_index(0), 0);
  EXPECT_EQ(p.platform.class_index(2), 1);
  EXPECT_DOUBLE_EQ(p.platform.fpga_capacity(0)[Resource::kDsp], 100.0);
  EXPECT_DOUBLE_EQ(p.platform.fpga_capacity(1)[Resource::kDsp], 50.0);
  EXPECT_DOUBLE_EQ(p.platform.fpga_bw_capacity(2), 60.0);
  EXPECT_DOUBLE_EQ(p.cap(1)[Resource::kDsp], 40.0);  // 50 · 0.8
  EXPECT_DOUBLE_EQ(p.bw_cap(0), 100.0);
  // Pooled caps sum the per-FPGA effective caps.
  EXPECT_DOUBLE_EQ(p.pooled_cap()[Resource::kDsp], 80.0 + 40.0 + 40.0);
  EXPECT_DOUBLE_EQ(p.pooled_bw_cap(), 100.0 + 60.0 + 60.0);
}

TEST(Platform, PerFpgaCuCaps) {
  const Problem p = mixed_problem();
  // Kernel c (DSP 35): big FPGA fits ⌊80/35⌋ = 2, small ⌊40/35⌋ = 1.
  EXPECT_EQ(p.max_cu_per_fpga(2, 0), 2);
  EXPECT_EQ(p.max_cu_per_fpga(2, 1), 1);
  EXPECT_EQ(p.max_cu_per_fpga(2), 2);       // roomiest device
  EXPECT_EQ(p.max_cu_total(2), 2 + 1 + 1);  // per-FPGA sum
}

TEST(Platform, ValidateRejectsBadClassAssignments) {
  Problem p = mixed_problem();
  p.platform.class_of = {0, 1};  // one FPGA unassigned
  EXPECT_EQ(p.validate().code(), Code::kInvalid);

  p = mixed_problem();
  p.platform.class_of = {0, 1, 2};  // index out of range
  EXPECT_EQ(p.validate().code(), Code::kInvalid);

  p = mixed_problem();
  p.platform.classes.clear();  // assignment without classes
  EXPECT_EQ(p.validate().code(), Code::kInvalid);

  // A kernel too large for every class.
  p = mixed_problem();
  p.app.kernels[2].res[Resource::kDsp] = 90.0;  // big cap is 80
  EXPECT_EQ(p.validate().code(), Code::kInfeasible);
}

TEST(Serialize, MixedPlatformRoundTrip) {
  const Problem p = mixed_problem();
  const std::string text = io::to_json(p).dump(2);
  auto parsed = io::problem_from_text(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const Problem& q = parsed.value();
  ASSERT_FALSE(q.platform.homogeneous());
  ASSERT_EQ(q.platform.classes.size(), 2u);
  EXPECT_EQ(q.platform.classes[0].name, "big");
  EXPECT_EQ(q.platform.classes[1].name, "small");
  EXPECT_EQ(q.platform.class_of, p.platform.class_of);
  for (int f = 0; f < p.num_fpgas(); ++f) {
    EXPECT_EQ(q.platform.fpga_capacity(f), p.platform.fpga_capacity(f));
    EXPECT_DOUBLE_EQ(q.platform.fpga_bw_capacity(f),
                     p.platform.fpga_bw_capacity(f));
  }
  // Second trip is bit-identical text.
  EXPECT_EQ(io::to_json(q).dump(2), text);
}

TEST(Serialize, RejectsInconsistentClassFields) {
  const char* missing_assignment = R"({
    "application": {"kernels": [{"name": "k", "wcet_ms": 1.0, "dsp": 10}]},
    "platform": {"fpgas": 2, "classes": [{"name": "c"}]}})";
  EXPECT_FALSE(io::problem_from_text(missing_assignment).is_ok());

  const char* bad_index = R"({
    "application": {"kernels": [{"name": "k", "wcet_ms": 1.0, "dsp": 10}]},
    "platform": {"fpgas": 2, "classes": [{"name": "c"}],
                 "class_of": [0, 5]}})";
  EXPECT_FALSE(io::problem_from_text(bad_index).is_ok());

  // Fractional indices must be rejected, not silently truncated.
  const char* fractional = R"({
    "application": {"kernels": [{"name": "k", "wcet_ms": 1.0, "dsp": 10}]},
    "platform": {"fpgas": 2, "classes": [{"name": "c"}],
                 "class_of": [0, 0.5]}})";
  EXPECT_FALSE(io::problem_from_text(fractional).is_ok());
}

/// A single-class heterogeneous encoding must solve exactly like the
/// same platform in the homogeneous (seed) encoding — allocations are
/// compared cell by cell, not just by objective.
TEST(Heterogeneous, SingleClassMatchesHomogeneousBitForBit) {
  Problem homog = test::tiny_problem();
  Problem hetero = homog;
  DeviceClass only{"only", homog.platform.capacity, homog.platform.bw_capacity};
  hetero.platform = Platform::heterogeneous(
      homog.platform.name, {only},
      std::vector<int>(static_cast<std::size_t>(homog.num_fpgas()), 0));

  auto g1 = alloc::GpaSolver().solve(homog);
  auto g2 = alloc::GpaSolver().solve(hetero);
  ASSERT_TRUE(g1.is_ok() && g2.is_ok());
  for (std::size_t k = 0; k < homog.num_kernels(); ++k) {
    for (int f = 0; f < homog.num_fpgas(); ++f) {
      EXPECT_EQ(g1.value().allocation.cu(k, f), g2.value().allocation.cu(k, f));
    }
  }
  EXPECT_DOUBLE_EQ(g1.value().relaxed_ii, g2.value().relaxed_ii);

  auto e1 = solver::ExactSolver().solve(homog);
  auto e2 = solver::ExactSolver().solve(hetero);
  ASSERT_TRUE(e1.is_ok() && e2.is_ok());
  for (std::size_t k = 0; k < homog.num_kernels(); ++k) {
    for (int f = 0; f < homog.num_fpgas(); ++f) {
      EXPECT_EQ(e1.value().allocation.cu(k, f), e2.value().allocation.cu(k, f));
    }
  }
}

/// The ISSUE-3 acceptance scenario: a generated mixed-class 2-FPGA
/// instance (fixed seed) solves via GP+A, exact and naive; exact and
/// naive agree on the optimum and the GP+A allocation is feasible.
TEST(Heterogeneous, AcceptanceScenarioSolvesOnAllPaths) {
  scenario::ScenarioSpec spec;
  spec.min_kernels = 3;
  spec.max_kernels = 3;
  spec.min_fpgas = 2;
  spec.max_fpgas = 2;
  spec.max_classes = 2;
  spec.class_skew = 0.5;
  spec.tightness = 0.9;
  spec.max_cu_per_kernel = 3;
  spec.beta_probability = 1.0;

  // Seed 0 draws a genuinely mixed platform under this spec (asserted
  // below, so a generator change cannot silently hollow out the test).
  const Problem p = scenario::generate(spec, 0);
  ASSERT_FALSE(p.platform.homogeneous());
  ASSERT_EQ(p.platform.num_classes(), 2u);

  auto exact = solver::ExactSolver().solve(p);
  ASSERT_TRUE(exact.is_ok()) << exact.status().to_string();
  ASSERT_TRUE(exact.value().proved_optimal);
  EXPECT_TRUE(exact.value().allocation.feasible());

  solver::NaiveMinlp naive;
  auto oracle = naive.solve(p);
  ASSERT_TRUE(oracle.is_ok()) << oracle.status().to_string();
  ASSERT_TRUE(oracle.value().proved_optimal);
  EXPECT_NEAR(exact.value().goal, oracle.value().goal,
              1e-6 * (1.0 + oracle.value().goal));

  auto gpa = alloc::GpaSolver().solve(p);
  ASSERT_TRUE(gpa.is_ok()) << gpa.status().to_string();
  EXPECT_TRUE(gpa.value().allocation.feasible());
  // Heuristic never beats the proved optimum goal.
  EXPECT_GE(gpa.value().allocation.goal(), exact.value().goal * (1.0 - 1e-9));
}

/// Exact placement must exploit class asymmetry: a kernel that only
/// fits the big device must land there.
TEST(Heterogeneous, ExactUsesTheRightDevice) {
  Problem p;
  p.app.kernels = {test::make_kernel("big-only", 10.0, 0.0, 60.0, 0.0),
                   test::make_kernel("anywhere", 10.0, 0.0, 20.0, 0.0)};
  DeviceClass big{"big", ResourceVec::uniform(100.0), 100.0};
  DeviceClass small{"small", ResourceVec::uniform(40.0), 100.0};
  p.platform = Platform::heterogeneous("mix", {big, small}, {1, 0});
  auto r = solver::ExactSolver().solve(p);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  // "big-only" (DSP 60) exceeds the small class cap (40): every CU of
  // it must sit on FPGA 1 (the big device).
  EXPECT_EQ(r.value().allocation.cu(0, 0), 0);
  EXPECT_GE(r.value().allocation.cu(0, 1), 1);
  EXPECT_TRUE(r.value().allocation.feasible());
}

TEST(Scenario, SameSeedSameScenario) {
  const scenario::ScenarioSpec spec;
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 1234567ull}) {
    const Problem a = scenario::generate(spec, seed);
    const Problem b = scenario::generate(spec, seed);
    // Bit-for-bit identical serialization, not just structural equality.
    EXPECT_EQ(io::to_json(a).dump(), io::to_json(b).dump()) << seed;
  }
}

TEST(Scenario, DifferentSeedsDiffer) {
  const scenario::ScenarioSpec spec;
  const Problem a = scenario::generate(spec, 1);
  const Problem b = scenario::generate(spec, 2);
  EXPECT_NE(io::to_json(a).dump(), io::to_json(b).dump());
}

TEST(Scenario, EveryInstanceValidates) {
  scenario::ScenarioSpec spec;
  spec.max_classes = 3;
  spec.min_fpgas = 1;
  spec.max_fpgas = 4;
  spec.tightness = 0.6;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const Problem p = scenario::generate(spec, seed);
    EXPECT_TRUE(p.validate().is_ok()) << "seed " << seed;
  }
}

TEST(Scenario, SpecKnobsAreRespected) {
  scenario::ScenarioSpec spec;
  spec.min_kernels = spec.max_kernels = 5;
  spec.min_fpgas = spec.max_fpgas = 4;
  spec.max_classes = 1;  // force homogeneous
  spec.tightness = 0.7;
  bool saw_beta = false;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const Problem p = scenario::generate(spec, seed);
    EXPECT_EQ(p.num_kernels(), 5u);
    EXPECT_EQ(p.num_fpgas(), 4);
    EXPECT_TRUE(p.platform.homogeneous());
    EXPECT_DOUBLE_EQ(p.resource_fraction, 0.7);
    saw_beta = saw_beta || p.beta > 0.0;
  }
  EXPECT_TRUE(saw_beta);  // beta_probability = 0.5 over 20 draws
}

/// The relaxation cache key must distinguish problems that differ only
/// in their device-class vector — same pooled capacity or not.
TEST(Fingerprint, SensitiveToClassVector) {
  const Problem base = mixed_problem();
  const core::Fingerprint fp = core::relaxation_fingerprint(base);

  // Identical problem, identical key.
  EXPECT_EQ(fp, core::relaxation_fingerprint(mixed_problem()));

  // Swap which FPGAs carry which class: pooled caps unchanged, but the
  // per-FPGA cap sequence (and hence CU bounds) changes.
  Problem swapped = base;
  swapped.platform.class_of = {1, 1, 0};
  EXPECT_NE(fp, core::relaxation_fingerprint(swapped));

  // Change one class's capacity.
  Problem resized = base;
  resized.platform.classes[1].capacity = ResourceVec::uniform(60.0);
  EXPECT_NE(fp, core::relaxation_fingerprint(resized));

  // Change one class's bandwidth.
  Problem rebw = base;
  rebw.platform.classes[1].bw_capacity = 50.0;
  EXPECT_NE(fp, core::relaxation_fingerprint(rebw));

  // A homogeneous platform with the same pooled capacity as the mix
  // must not alias it either.
  Problem pooled_twin = base;
  pooled_twin.platform = core::Platform{};
  pooled_twin.platform.name = "twin";
  pooled_twin.platform.num_fpgas = 3;
  // Pooled DSP of the mix is 200 (100 + 50 + 50) over 3 FPGAs.
  pooled_twin.platform.capacity = ResourceVec::uniform(200.0 / 3.0);
  pooled_twin.platform.bw_capacity = (100.0 + 60.0 + 60.0) / 3.0;
  EXPECT_NE(fp, core::relaxation_fingerprint(pooled_twin));
}

/// The warm-start cache stays sound across class vectors: GP+A with a
/// shared cache solves a mixed problem and its class-swapped twin to
/// the same answers as without a cache.
TEST(Fingerprint, CacheTransparentAcrossClassVectors) {
  Problem a = mixed_problem();
  Problem b = a;
  b.platform.class_of = {1, 1, 0};

  core::RelaxationCache cache;
  core::SolverContext context;
  context.relax_cache = &cache;
  alloc::GpaOptions with_cache;
  with_cache.context = &context;
  for (const Problem* p : {&a, &b, &a}) {
    auto cached = alloc::GpaSolver(with_cache).solve(*p);
    auto cold = alloc::GpaSolver().solve(*p);
    ASSERT_EQ(cached.is_ok(), cold.is_ok());
    if (!cached.is_ok()) continue;
    EXPECT_DOUBLE_EQ(cached.value().relaxed_ii, cold.value().relaxed_ii);
    EXPECT_EQ(cached.value().totals, cold.value().totals);
  }
  EXPECT_GT(cache.stats().hits, 0u);  // third pass re-used the first's
}

TEST(Heterogeneous, GreedyRespectsPerDeviceCaps) {
  const Problem p = mixed_problem();
  auto gpa = alloc::GpaSolver().solve(p);
  ASSERT_TRUE(gpa.is_ok()) << gpa.status().to_string();
  const core::Allocation& a = gpa.value().allocation;
  for (int f = 0; f < p.num_fpgas(); ++f) {
    EXPECT_TRUE(a.fpga_resources(f).fits_within(p.cap(f), 1e-6)) << f;
    EXPECT_LE(a.fpga_bw(f), p.bw_cap(f) + 1e-6) << f;
  }
}

}  // namespace
}  // namespace mfa
