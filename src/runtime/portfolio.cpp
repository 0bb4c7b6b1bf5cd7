#include "runtime/portfolio.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "alloc/gpa.hpp"
#include "solver/budget.hpp"
#include "solver/exact.hpp"
#include "solver/naive.hpp"

namespace mfa::runtime {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// What one lane hands back to the aggregation step.
struct LaneRun {
  StrategyOutcome outcome;
  std::optional<core::Allocation> allocation;  // bound to the request problem
  std::optional<core::RelaxedSolution> relaxed;  // GP+A root (ÎI, N̂)
};

LaneRun run_lane(const StrategySpec& spec, const core::Problem& problem,
                 const PortfolioOptions& options,
                 const std::optional<core::RelaxedSolution>& warm,
                 solver::Budget& shared) {
  LaneRun run;
  run.outcome.strategy = spec.name();
  const auto t0 = Clock::now();

  switch (spec.kind) {
    case StrategySpec::Kind::kGpa: {
      alloc::GpaOptions o = options.gpa;
      o.greedy.t_max = spec.t_max;
      // A portfolio-level cache takes precedence over whatever the base
      // GpaOptions carried.
      if (options.context != nullptr &&
          options.context->relax_cache != nullptr) {
        o.context = options.context;
      }
      if (warm) o.warm = warm;  // root-relaxation seed (request-level)
      StatusOr<alloc::GpaResult> r = alloc::GpaSolver(o).solve(problem);
      if (r.is_ok()) {
        run.allocation = std::move(r.value().allocation);
        run.outcome.nodes = r.value().discretize_nodes;
        run.relaxed = core::RelaxedSolution{
            r.value().relaxed_ii, std::move(r.value().relaxed_n)};
      } else {
        run.outcome.status = r.status();
      }
      break;
    }
    case StrategySpec::Kind::kExact: {
      solver::ExactOptions o = options.exact;
      o.max_nodes = options.max_nodes;
      o.max_seconds = options.max_seconds;
      o.shared = &shared;
      StatusOr<solver::ExactResult> r =
          solver::ExactSolver(o).solve(problem);
      if (r.is_ok()) {
        run.allocation = std::move(r.value().allocation);
        run.outcome.nodes = r.value().nodes;
        run.outcome.proved_optimal = r.value().proved_optimal;
      } else {
        run.outcome.status = r.status();
      }
      break;
    }
    case StrategySpec::Kind::kNaive: {
      // Runs directly on the shared budget so expire() reaches it. The
      // solver reports its own node delta (exact when lanes are
      // sequential, approximate when another budgeted lane races
      // alongside); on error the delta is re-derived here.
      const std::int64_t nodes_before = shared.nodes_used();
      StatusOr<solver::NaiveResult> r =
          solver::NaiveMinlp(&shared).solve(problem);
      if (r.is_ok()) {
        run.allocation = std::move(r.value().allocation);
        run.outcome.nodes = r.value().nodes;
        run.outcome.proved_optimal = r.value().proved_optimal;
      } else {
        run.outcome.nodes = shared.nodes_used() - nodes_before;
        run.outcome.status = r.status();
      }
      break;
    }
  }

  if (run.allocation) {
    run.outcome.ii = run.allocation->ii();
    run.outcome.phi = run.allocation->phi();
    run.outcome.goal = problem.alpha * run.outcome.ii +
                       problem.beta * run.outcome.phi;
  }
  run.outcome.seconds = seconds_since(t0);

  // A completed search on the true objective makes the remaining races
  // pointless: cancel them, they keep their incumbents.
  if (run.outcome.proved_optimal) {
    shared.expire();
  }
  return run;
}

}  // namespace

Portfolio::Portfolio(PortfolioOptions options, int num_threads)
    : options_(std::move(options)) {
  if (num_threads == 1) return;  // sequential lanes
  if (num_threads <= 0) {
    const int lanes = static_cast<int>(options_.lanes().size());
    num_threads = std::min(
        lanes,
        std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
    if (num_threads <= 1) return;
  }
  pool_ = std::make_unique<ThreadPool>(num_threads);
}

Portfolio::~Portfolio() = default;

SolveResult Portfolio::solve(const core::Problem& problem) const {
  return solve(std::make_shared<const core::Problem>(problem));
}

SolveResult Portfolio::solve(
    std::shared_ptr<const core::Problem> problem) const {
  SolveRequest request;
  request.problem = std::move(problem);
  return solve(request);
}

SolveResult Portfolio::solve(const SolveRequest& request) const {
  const PortfolioOptions& options =
      request.options ? *request.options : options_;
  const core::Problem& problem = *request.problem;
  const auto t0 = Clock::now();

  SolveResult result;
  result.problem = request.problem;

  if (Status valid = problem.validate(); !valid.is_ok()) {
    result.status = std::move(valid);
    return result;
  }

  const std::vector<StrategySpec> lanes = options.lanes();
  if (lanes.empty()) {
    result.status = Status{Code::kInvalid, "no strategies configured"};
    return result;
  }
  solver::Budget shared(options.max_nodes, options.max_seconds);

  std::vector<LaneRun> runs(lanes.size());
  if (pool_ != nullptr && lanes.size() > 1) {
    pool_->parallel_for(lanes.size(), [&](std::size_t i) {
      runs[i] = run_lane(lanes[i], problem, options, request.warm, shared);
    });
  } else {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      runs[i] = run_lane(lanes[i], problem, options, request.warm, shared);
    }
  }

  // Deterministic aggregation: best goal, ties to the earliest lane.
  std::size_t winner = lanes.size();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    result.lanes.push_back(runs[i].outcome);
    result.nodes += runs[i].outcome.nodes;
    if (runs[i].allocation &&
        (winner == lanes.size() ||
         runs[i].outcome.goal < result.lanes[winner].goal)) {
      winner = i;
    }
  }

  if (winner == lanes.size()) {
    // No lane produced an allocation. Only an exact-kind lane's
    // kInfeasible is a *proof*; GP+A's is heuristic (Algorithm 1 giving
    // up within T says nothing about the true feasible set), so a
    // portfolio of heuristic lanes must never promote their unanimous
    // failure to a proof-grade kInfeasible — it stays kLimit.
    Status status{Code::kLimit, "every lane exhausted its budget"};
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (lanes[i].kind == StrategySpec::Kind::kGpa) continue;
      if (runs[i].outcome.status.code() == Code::kInfeasible) {
        status = runs[i].outcome.status;
        break;
      }
    }
    if (status.code() == Code::kLimit) {
      const bool all_infeasible = std::all_of(
          runs.begin(), runs.end(), [](const LaneRun& r) {
            return r.outcome.status.code() == Code::kInfeasible;
          });
      if (all_infeasible) {
        status = Status{Code::kLimit,
                        "every heuristic lane reported infeasibility "
                        "(no exact lane ran; not a proof)"};
      }
    }
    result.status = std::move(status);
    result.seconds = seconds_since(t0);
    return result;
  }

  result.allocation = rebind(*runs[winner].allocation, *result.problem);
  result.relaxed = std::move(runs[winner].relaxed);
  result.ii = result.lanes[winner].ii;
  result.phi = result.lanes[winner].phi;
  result.goal = result.lanes[winner].goal;
  result.winner = result.lanes[winner].strategy;
  // "Proved" only when the returned incumbent matches (or, via a T > 0
  // cap relaxation, beats) a lane that completed its exact search.
  result.proved_optimal = std::any_of(
      result.lanes.begin(), result.lanes.end(),
      [&](const StrategyOutcome& o) {
        return o.proved_optimal && result.goal <= o.goal + 1e-12;
      });
  result.seconds = seconds_since(t0);
  return result;
}

}  // namespace mfa::runtime
