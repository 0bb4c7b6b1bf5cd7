// Google-benchmark microbenchmarks of the solver components: the GP
// interior-point reference solve, the exact bisection relaxation,
// branch-and-bound discretization, Algorithm 1, exact packing, the
// end-to-end pipelines on the paper's largest case (the exact ones with
// their packing nodes per second: two decided solves at the Table-4
// weights, and an undecided one at β = 0), three GP+A solves with the
// relaxation cache off and on, and the portfolio's three GP+A lanes,
// which share one stage pass.
#include <benchmark/benchmark.h>

#include "alloc/gpa.hpp"
#include "alloc/greedy.hpp"
#include "core/relaxation.hpp"
#include "hls/paper.hpp"
#include "runtime/portfolio.hpp"
#include "solver/discretize.hpp"
#include "solver/exact.hpp"
#include "solver/candidates.hpp"
#include "solver/packing.hpp"

namespace {

mfa::core::Problem vgg_problem(double rc) {
  mfa::core::Problem p = mfa::hls::paper::case_vgg_8fpga();
  p.resource_fraction = rc;
  return p;
}

void BM_RelaxationBisection(benchmark::State& state) {
  const mfa::core::Problem p = vgg_problem(0.7);
  for (auto _ : state) {
    auto r = mfa::core::solve_relaxation(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RelaxationBisection);

void BM_RelaxationInteriorPoint(benchmark::State& state) {
  const mfa::core::Problem p = vgg_problem(0.7);
  for (auto _ : state) {
    auto r = mfa::core::solve_relaxation_gp(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RelaxationInteriorPoint);

void BM_Discretize(benchmark::State& state) {
  const mfa::core::Problem p = vgg_problem(0.7);
  for (auto _ : state) {
    auto r = mfa::solver::Discretizer().run(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Discretize);

void BM_GreedyAllocate(benchmark::State& state) {
  const mfa::core::Problem p = vgg_problem(0.7);
  const auto disc = mfa::solver::Discretizer().run(p);
  for (auto _ : state) {
    auto r = mfa::alloc::GreedyAllocator().allocate(p, disc.value().totals);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GreedyAllocate);

void BM_GpaEndToEnd(benchmark::State& state) {
  const mfa::core::Problem p =
      vgg_problem(0.55 + 0.05 * static_cast<double>(state.range(0)));
  for (auto _ : state) {
    auto r = mfa::alloc::GpaSolver().solve(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GpaEndToEnd)->DenseRange(0, 4);

// Three full GP+A solves at the portfolio's greedy deviations re-solve
// the identical root relaxation and branch-and-bound tree. With the
// relaxation cache on (argument 1; the cache lives across iterations, as
// in a long-running sweep) the repeats collapse to lookups; argument 0
// solves every lane cold.
void BM_GpaThreeLanesRelaxCache(benchmark::State& state) {
  const mfa::core::Problem p = vgg_problem(0.7);
  mfa::core::RelaxationCache cache;
  mfa::core::SolverContext context;
  if (state.range(0) != 0) context.relax_cache = &cache;
  for (auto _ : state) {
    for (const double t : {0.0, 0.05, 0.10}) {
      mfa::alloc::GpaOptions o;
      o.greedy.t_max = t;
      o.context = &context;
      auto r = mfa::alloc::GpaSolver(o).solve(p);
      benchmark::DoNotOptimize(r);
    }
  }
}
BENCHMARK(BM_GpaThreeLanesRelaxCache)->Arg(0)->Arg(1);

// The same three deviations as the default portfolio runs them: one
// relaxation + discretization pass, then Algorithm 1 per lane (exact
// off, sequential lanes).
void BM_PortfolioGpaLanes(benchmark::State& state) {
  const mfa::core::Problem p = vgg_problem(0.7);
  mfa::runtime::PortfolioOptions options;
  options.run_exact = false;
  const mfa::runtime::Portfolio portfolio(options, /*num_threads=*/1);
  for (auto _ : state) {
    auto r = portfolio.solve(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PortfolioGpaLanes);

void BM_PackingFeasibility(benchmark::State& state) {
  const mfa::core::Problem p = vgg_problem(0.7);
  const std::vector<int> totals =
      mfa::solver::minimal_totals(p, /*target_ii=*/14.0);
  for (auto _ : state) {
    mfa::solver::Budget budget(10'000'000, 5.0);
    auto r = mfa::solver::PackingSolver(p).pack(
        totals, mfa::solver::PackingMode::kFeasibility, budget);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PackingFeasibility);

// The exact lane on VGG-16 at fraction `rc` and spreading weight `beta`,
// reporting its packing nodes per second.
void exact_vgg(benchmark::State& state, double rc, double beta) {
  mfa::core::Problem p = vgg_problem(rc);
  p.beta = beta;
  std::int64_t nodes = 0;
  for (auto _ : state) {
    auto r = mfa::solver::ExactSolver().solve(p);
    if (r.is_ok()) nodes += r.value().nodes;
    benchmark::DoNotOptimize(r);
  }
  state.counters["nodes_per_s"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kIsRate);
}

// Fraction 0.56 at the Table-4 weights (β = 50): the capacity-count
// bounds decide every pack, so the solve proves its optimum in a few
// hundred packing nodes and its time is mostly per-pack set-up.
void BM_ExactVgg8(benchmark::State& state) { exact_vgg(state, 0.56, 50.0); }
BENCHMARK(BM_ExactVgg8)->Unit(benchmark::kMillisecond);

// Fraction 0.93 at the Table-4 weights: the top-down scan's cutoffs
// decide every min-spreading pack, and the solve proves its optimum in
// about 1,100 nodes.
void BM_ExactVgg8Spread(benchmark::State& state) {
  exact_vgg(state, 0.93, 50.0);
}
BENCHMARK(BM_ExactVgg8Spread)->Unit(benchmark::kMillisecond);

// Fraction 0.93 at β = 0: one feasibility pack of the binary search
// still stops undecided at the 500k per-pack node cap, so the time is
// set by the packing search's cost per node.
void BM_ExactVgg8Undecided(benchmark::State& state) {
  exact_vgg(state, 0.93, 0.0);
}
BENCHMARK(BM_ExactVgg8Undecided)->Unit(benchmark::kMillisecond);

void BM_ExactAlex16(benchmark::State& state) {
  mfa::core::Problem p = mfa::hls::paper::case_alex16_2fpga();
  p.resource_fraction = 0.7;
  for (auto _ : state) {
    auto r = mfa::solver::ExactSolver().solve(p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ExactAlex16);

}  // namespace

BENCHMARK_MAIN();
