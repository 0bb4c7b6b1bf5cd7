#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/relax_cache.hpp"
#include "core/solver_context.hpp"
#include "hls/paper.hpp"
#include "oracles/sweep.hpp"
#include "runtime/batch.hpp"
#include "runtime/portfolio.hpp"
#include "runtime/sweep.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/trace.hpp"
#include "service/composite.hpp"
#include "testutil.hpp"

namespace mfa::runtime {
namespace {

// Node-capped, wall-clock-free portfolio: deterministic by construction.
PortfolioOptions deterministic_portfolio(std::int64_t exact_nodes) {
  PortfolioOptions o;
  o.gpa_t_max = {0.0, 0.05, 0.10};
  o.run_exact = true;
  o.max_nodes = exact_nodes;
  o.max_seconds = 3600.0;
  return o;
}

std::vector<core::Problem> random_grid(int count, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<core::Problem> grid;
  grid.reserve(count);
  for (int i = 0; i < count; ++i) {
    grid.push_back(test::random_problem(rng));
  }
  return grid;
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8,
                        [](std::size_t i) {
                          if (i == 5) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&counter] { ++counter; });
    }
  }  // ~ThreadPool must block until all 50 ran
  EXPECT_EQ(counter.load(), 50);
}

TEST(Portfolio, NeverWorseThanAnyIndividualStrategy) {
  // The core portfolio guarantee: on the same instance, racing all
  // strategies returns a goal ≤ the best of each run individually.
  std::mt19937 rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const core::Problem problem = test::random_problem(rng);

    double best_individual = std::numeric_limits<double>::infinity();
    for (double t : {0.0, 0.05, 0.10}) {
      PortfolioOptions solo;
      solo.gpa_t_max = {t};
      solo.run_exact = false;
      const SolveResult r = Portfolio(solo, 1).solve(problem);
      if (r.is_ok()) best_individual = std::min(best_individual, r.goal);
    }
    {
      PortfolioOptions solo = deterministic_portfolio(200'000);
      solo.gpa_t_max.clear();
      const SolveResult r = Portfolio(solo, 1).solve(problem);
      if (r.is_ok()) best_individual = std::min(best_individual, r.goal);
    }

    const SolveResult full =
        Portfolio(deterministic_portfolio(200'000), 1).solve(problem);
    if (!std::isfinite(best_individual)) continue;  // all-infeasible draw
    ASSERT_TRUE(full.is_ok());
    EXPECT_LE(full.goal, best_individual + 1e-9);
  }
}

TEST(Portfolio, PaperCaseNotWorseThanIndividuals) {
  core::Problem problem = hls::paper::case_alex16_2fpga();
  problem.resource_fraction = 0.7;

  PortfolioOptions gpa_only;
  gpa_only.gpa_t_max = {0.0};
  gpa_only.run_exact = false;
  const SolveResult gpa = Portfolio(gpa_only, 1).solve(problem);

  PortfolioOptions exact_only = deterministic_portfolio(400'000);
  exact_only.gpa_t_max.clear();
  const SolveResult exact = Portfolio(exact_only, 1).solve(problem);

  const SolveResult full =
      Portfolio(deterministic_portfolio(400'000), 1).solve(problem);
  ASSERT_TRUE(full.is_ok());
  ASSERT_TRUE(gpa.is_ok());
  ASSERT_TRUE(exact.is_ok());
  EXPECT_LE(full.goal, std::min(gpa.goal, exact.goal) + 1e-9);
  EXPECT_FALSE(full.winner.empty());
}

TEST(Portfolio, ReportsProvenancePerLane) {
  const SolveResult r =
      Portfolio(deterministic_portfolio(100'000), 1)
          .solve(test::tiny_problem());
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r.lanes.size(), 4u);  // 3 GP+A deviations + exact
  EXPECT_EQ(r.lanes[0].strategy, "gpa(T=0.00)");
  EXPECT_EQ(r.lanes[3].strategy, "exact");
  // The winner's lane stats match the headline numbers.
  bool found = false;
  for (const StrategyOutcome& lane : r.lanes) {
    if (lane.strategy == r.winner) {
      found = true;
      EXPECT_DOUBLE_EQ(lane.goal, r.goal);
      EXPECT_DOUBLE_EQ(lane.ii, r.ii);
    }
  }
  EXPECT_TRUE(found);
  // The returned allocation is self-contained and scores the same goal.
  ASSERT_TRUE(r.allocation.has_value());
  EXPECT_NEAR(r.allocation->ii(), r.ii, 1e-12);
  // Exact completed on this tiny instance, so the result is proved.
  EXPECT_TRUE(r.proved_optimal);
}

TEST(Portfolio, ParallelLanesMatchSequentialLanes) {
  // With node-only budgets the winner is chosen by (goal, lane index),
  // never completion order → racing lanes must not change the answer.
  const core::Problem problem = test::tiny_problem();
  const SolveResult seq =
      Portfolio(deterministic_portfolio(100'000), 1).solve(problem);
  const SolveResult par =
      Portfolio(deterministic_portfolio(100'000), 4).solve(problem);
  ASSERT_TRUE(seq.is_ok());
  ASSERT_TRUE(par.is_ok());
  EXPECT_EQ(seq.winner, par.winner);
  EXPECT_EQ(seq.goal, par.goal);
  EXPECT_EQ(seq.ii, par.ii);
  EXPECT_EQ(seq.phi, par.phi);
}

/// Applies one generated trace event to a composite and its live list.
/// The generator keeps the pipeline lifecycle valid (every remove and
/// reprioritize names a live pipeline).
void apply_event(const service::Event& event,
                 std::vector<service::PipelineSpec>& live,
                 service::CompositeBuilder& composite) {
  const auto index = [&live](const std::string& id) {
    std::size_t i = 0;
    while (i < live.size() && live[i].id != id) ++i;
    return i;
  };
  switch (event.type) {
    case service::Event::Type::kAddPipeline:
      live.push_back(event.pipeline);
      composite.add_pipeline(live.back());
      break;
    case service::Event::Type::kRemovePipeline: {
      const std::size_t i = index(event.id);
      ASSERT_LT(i, live.size());
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      composite.remove_pipeline(i);
      break;
    }
    case service::Event::Type::kReprioritize: {
      const std::size_t i = index(event.id);
      ASSERT_LT(i, live.size());
      live[i].weight = event.weight;
      composite.reprioritize(i, live[i]);
      break;
    }
    case service::Event::Type::kResizePlatform:
      composite.resize_platform(event.platform);
      break;
  }
}

TEST(Portfolio, WarmSeedMatchesColdOnEveryComposite) {
  // SolveRequest::warm seeds the GP+A root bisection from a related
  // solve. It must be a pure acceleration: every composite of a replayed
  // service trace, solved with the previous warm solve's root
  // relaxation as its seed, gets the cold solve's allocation, II, φ and
  // goal.
  scenario::TraceSpec spec;
  spec.num_events = 120;
  spec.num_fpgas = 3;
  spec.max_live_pipelines = 4;
  spec.max_kernels = 3;
  const scenario::Trace trace = scenario::generate_trace(spec, 29);
  PortfolioOptions options;
  options.run_exact = false;
  Portfolio portfolio(options, 1);

  service::CompositeBuilder composite(trace.platform,
                                      service::CompositeConfig{});
  std::vector<service::PipelineSpec> live;
  std::optional<core::RelaxedSolution> seed;
  int seeded = 0;
  for (std::size_t e = 0; e < trace.events.size(); ++e) {
    SCOPED_TRACE("event " + std::to_string(e));
    ASSERT_NO_FATAL_FAILURE(apply_event(trace.events[e], live, composite));
    if (live.empty()) continue;
    SolveRequest cold;
    cold.problem = composite.snapshot();
    SolveRequest warm = cold;
    warm.warm = seed;
    const SolveResult c = portfolio.solve(cold);
    const SolveResult w = portfolio.solve(warm);
    if (seed) ++seeded;
    ASSERT_EQ(w.status.code(), c.status.code());
    if (!c.is_ok()) continue;
    ASSERT_TRUE(c.allocation.has_value());
    ASSERT_TRUE(w.allocation.has_value());
    EXPECT_EQ(w.allocation->to_string(), c.allocation->to_string());
    EXPECT_EQ(w.ii, c.ii);
    EXPECT_EQ(w.phi, c.phi);
    EXPECT_EQ(w.goal, c.goal);
    seed = w.relaxed;
  }
  EXPECT_GT(seeded, 0);
}

TEST(Portfolio, ZeroLanesIsInvalidNotInfeasible) {
  PortfolioOptions o;
  o.gpa_t_max.clear();
  o.run_exact = false;
  o.run_naive = false;
  const SolveResult r = Portfolio(o, 1).solve(test::tiny_problem());
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status.code(), Code::kInvalid);
}

TEST(Portfolio, InfeasibleProblemReportsInfeasible) {
  core::Problem problem = test::tiny_problem();
  // One CU of kernel 'a' needs 10 % BRAM; a 5 % cap fits nothing.
  problem.resource_fraction = 0.05;
  const SolveResult r =
      Portfolio(deterministic_portfolio(100'000), 1).solve(problem);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status.code(), Code::kInfeasible);
  EXPECT_FALSE(r.allocation.has_value());
}

TEST(Portfolio, HeuristicOnlyPortfolioNeverClaimsInfeasibilityProof) {
  // Regression: with every configured lane heuristic (GP+A), unanimous
  // kInfeasible used to be promoted to the aggregate kInfeasible — a
  // proof-grade claim no heuristic lane can back. Two kernels at 60 %
  // of one FPGA each fit alone (validate passes) but can never share
  // the device, so every GP+A lane reports infeasibility.
  core::Problem problem;
  problem.app.name = "overcommitted";
  problem.app.kernels = {test::make_kernel("a", 10.0, 60.0, 10.0, 5.0),
                         test::make_kernel("b", 10.0, 60.0, 10.0, 5.0)};
  problem.platform = core::Platform{"1fpga", 1};
  PortfolioOptions o;
  o.run_exact = false;
  o.run_naive = false;
  const SolveResult r = Portfolio(o, 1).solve(problem);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status.code(), Code::kLimit);
  for (const StrategyOutcome& lane : r.lanes) {
    EXPECT_EQ(lane.status.code(), Code::kInfeasible);
  }

  // The same instance with an exact lane *does* earn the proof.
  o.run_exact = true;
  const SolveResult proved = Portfolio(o, 1).solve(problem);
  EXPECT_EQ(proved.status.code(), Code::kInfeasible);
}

TEST(Portfolio, DeadlineStopsExactSolver) {
  // A 17-kernel × 8-FPGA exact search runs for minutes unbudgeted; a
  // 50 ms shared deadline must cut it off quickly, keeping any incumbent.
  core::Problem problem = hls::paper::case_vgg_8fpga();
  problem.resource_fraction = 0.7;
  PortfolioOptions o;
  o.gpa_t_max.clear();
  o.run_exact = true;
  o.max_nodes = std::numeric_limits<std::int64_t>::max() / 2;
  o.max_seconds = 0.05;
  const auto t0 = std::chrono::steady_clock::now();
  const SolveResult r = Portfolio(o, 1).solve(problem);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 10.0);  // generous: deadline is polled per packing
  EXPECT_FALSE(r.proved_optimal);
}

TEST(BatchRunner, ResultsAlignWithInputOrder) {
  std::vector<core::Problem> grid;
  for (double rc : {0.9, 0.6, 0.8, 0.7}) {
    core::Problem p = test::tiny_problem();
    p.resource_fraction = rc;
    grid.push_back(p);
  }
  BatchOptions batch;
  batch.num_threads = 3;
  batch.portfolio = deterministic_portfolio(50'000);
  const std::vector<SolveResult> results =
      BatchRunner(batch).solve_all(grid);
  ASSERT_EQ(results.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(results[i].problem->resource_fraction,
              grid[i].resource_fraction);
  }
}

TEST(BatchRunner, BitForBitIdenticalAcrossThreadCounts) {
  const std::vector<core::Problem> grid = random_grid(16, 1234);

  auto run = [&grid](int threads) {
    BatchOptions batch;
    batch.num_threads = threads;
    batch.portfolio = deterministic_portfolio(50'000);
    return BatchRunner(batch).solve_all(grid);
  };
  const std::vector<SolveResult> one = run(1);
  const std::vector<SolveResult> four = run(4);

  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(one[i].is_ok(), four[i].is_ok());
    EXPECT_EQ(one[i].status.code(), four[i].status.code());
    EXPECT_EQ(one[i].winner, four[i].winner);
    // Bit-for-bit: identical lane execution order per instance makes the
    // floating-point results exactly equal, not merely close.
    EXPECT_EQ(one[i].goal, four[i].goal);
    EXPECT_EQ(one[i].ii, four[i].ii);
    EXPECT_EQ(one[i].phi, four[i].phi);
    EXPECT_EQ(one[i].nodes, four[i].nodes);
    ASSERT_EQ(one[i].lanes.size(), four[i].lanes.size());
    for (std::size_t l = 0; l < one[i].lanes.size(); ++l) {
      EXPECT_EQ(one[i].lanes[l].strategy, four[i].lanes[l].strategy);
      EXPECT_EQ(one[i].lanes[l].goal, four[i].lanes[l].goal);
      EXPECT_EQ(one[i].lanes[l].proved_optimal,
                four[i].lanes[l].proved_optimal);
    }
    if (!one[i].is_ok()) continue;
    const core::Allocation& a = *one[i].allocation;
    const core::Allocation& b = *four[i].allocation;
    ASSERT_EQ(a.num_kernels(), b.num_kernels());
    for (std::size_t k = 0; k < a.num_kernels(); ++k) {
      for (int f = 0; f < a.num_fpgas(); ++f) {
        EXPECT_EQ(a.cu(k, f), b.cu(k, f));
      }
    }
  }
}

TEST(BatchRunner, FourThreadsFasterThanOneOnMulticore) {
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "needs ≥ 4 hardware threads for a meaningful timing";
  }
  // 16 budget-capped exact solves on the paper's VGG case (the Alex
  // cases prove optimality in microseconds — too light to time): coarse,
  // CPU-bound, independent — the shape BatchRunner parallelizes.
  std::vector<core::Problem> grid;
  for (int i = 0; i < 16; ++i) {
    core::Problem p = hls::paper::case_vgg_8fpga();
    p.resource_fraction = 0.55 + 0.015 * i;
    grid.push_back(std::move(p));
  }
  auto time_run = [&grid](int threads) {
    BatchOptions batch;
    batch.num_threads = threads;
    batch.portfolio = deterministic_portfolio(400'000);
    const auto t0 = std::chrono::steady_clock::now();
    (void)BatchRunner(batch).solve_all(grid);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const double one = time_run(1);
  const double four = time_run(4);
  EXPECT_LT(four, one / 1.1)
      << "1 thread: " << one << " s, 4 threads: " << four << " s";
}

TEST(BatchRunner, SharedCacheDoesNotChangeResults) {
  // The batch's shared relaxation cache is a pure memoization: on 1
  // thread or 4, every result must be bit-for-bit identical to solving
  // each instance alone with no cache at all.
  const std::vector<core::Problem> grid = random_grid(12, 99);
  const PortfolioOptions options = deterministic_portfolio(50'000);

  std::vector<SolveResult> cold;
  for (const core::Problem& problem : grid) {
    cold.push_back(Portfolio(options, 1).solve(problem));
  }
  auto run = [&grid, &options](int threads) {
    BatchOptions batch;
    batch.num_threads = threads;
    batch.portfolio = options;
    return BatchRunner(batch).solve_all(grid);
  };
  const std::vector<SolveResult> cached_one = run(1);
  const std::vector<SolveResult> cached_four = run(4);

  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    for (const auto* other : {&cached_one, &cached_four}) {
      EXPECT_EQ(cold[i].status.code(), (*other)[i].status.code());
      EXPECT_EQ(cold[i].winner, (*other)[i].winner);
      EXPECT_EQ(cold[i].goal, (*other)[i].goal);
      EXPECT_EQ(cold[i].ii, (*other)[i].ii);
      EXPECT_EQ(cold[i].phi, (*other)[i].phi);
    }
  }
}

TEST(BatchRunner, ExternalCacheIsPopulatedAndReused) {
  core::RelaxationCache cache;
  core::SolverContext context;
  context.relax_cache = &cache;
  BatchOptions batch;
  batch.num_threads = 2;
  batch.context = &context;
  batch.portfolio = deterministic_portfolio(50'000);

  const std::vector<core::Problem> grid = random_grid(4, 31);
  const std::vector<SolveResult> first = BatchRunner(batch).solve_all(grid);
  const auto after_first = cache.stats();
  EXPECT_GT(after_first.entries, 0u);
  // Three GP+A lanes per instance walk identical trees → intra-batch hits.
  EXPECT_GT(after_first.hits, 0u);

  // A second batch over the same grid is served from the cache: no new
  // entries, identical results.
  const std::vector<SolveResult> second = BatchRunner(batch).solve_all(grid);
  EXPECT_EQ(cache.stats().entries, after_first.entries);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(first[i].goal, second[i].goal);
    EXPECT_EQ(first[i].winner, second[i].winner);
  }
}

TEST(RuntimeSweep, GpaPointsCarryHeuristicProvenance) {
  // GP+A completion is no optimality proof: such points must not be
  // labeled proved_optimal (they were before this was fixed).
  core::Problem problem = test::tiny_problem();
  alloc::SweepConfig config;
  config.constraints = alloc::constraint_range(0.70, 0.80, 0.05);
  SweepOptions options;
  options.num_threads = 2;
  options.config = config;
  const alloc::SweepSeries gpa =
      run_sweep(problem, alloc::Method::kGpa, options);
  for (const alloc::SweepPoint& pt : gpa.points) {
    EXPECT_FALSE(pt.proved_optimal);
  }
  // Exact methods keep their real proof flag (node budget is generous
  // enough for the tiny instance to complete).
  config.exact.max_nodes = 1'000'000;
  options.config = config;
  const alloc::SweepSeries exact =
      run_sweep(problem, alloc::Method::kMinlpG, options);
  for (const alloc::SweepPoint& pt : exact.points) {
    if (pt.feasible) EXPECT_TRUE(pt.proved_optimal);
  }
}

TEST(RuntimeSweep, MatchesSingleThreadedAllocSweep) {
  // The parallel sweep reproduces the sequential sweep oracle: same
  // series, same points, any thread count.
  core::Problem problem = hls::paper::case_alex16_2fpga();
  alloc::SweepConfig config;
  config.constraints = alloc::constraint_range(0.60, 0.80, 0.05);
  config.exact.max_nodes = 100'000;
  config.exact.max_seconds = 3600.0;

  for (alloc::Method method :
       {alloc::Method::kGpa, alloc::Method::kMinlp, alloc::Method::kMinlpG}) {
    SCOPED_TRACE(alloc::method_name(method));
    const alloc::SweepSeries reference =
        oracles::run_sweep(problem, method, config);
    SweepOptions options;
    options.num_threads = 4;
    options.config = config;
    const alloc::SweepSeries parallel =
        run_sweep(problem, method, options);
    ASSERT_EQ(parallel.points.size(), reference.points.size());
    for (std::size_t i = 0; i < reference.points.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(parallel.points[i].feasible, reference.points[i].feasible);
      EXPECT_EQ(parallel.points[i].proved_optimal,
                reference.points[i].proved_optimal);
      EXPECT_EQ(parallel.points[i].ii, reference.points[i].ii);
      EXPECT_EQ(parallel.points[i].phi, reference.points[i].phi);
      EXPECT_EQ(parallel.points[i].goal, reference.points[i].goal);
      EXPECT_EQ(parallel.points[i].avg_utilization,
                reference.points[i].avg_utilization);
    }
  }
}

}  // namespace
}  // namespace mfa::runtime
