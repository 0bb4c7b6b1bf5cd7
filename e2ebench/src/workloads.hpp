// The three workload runners behind mfa_e2e (see workloads.json):
//
//   run_serve   spawns mfallocd and drives an open-loop then a closed-loop
//               phase over HTTP (serve_small);
//   run_sweep   solves the paper's design-space grid in-process through
//               runtime::BatchRunner (offline_sweep);
//   run_traced  replays a workload's inputs in-process with spans around
//               every call into each layer, for the per-layer metrics.
//
// Every runner checks its outputs and records metrics into a Report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/problem.hpp"
#include "runtime/solve.hpp"
#include "scenario/trace.hpp"
#include "util.hpp"

namespace e2e {

struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string daemon;     ///< path to the mfallocd binary
  std::string work_dir;   ///< scratch directory owned by this run
  std::string spans_out;  ///< traced run: where the spans are written
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

RunResult run_serve(const RunContext& ctx, const WorkloadSpec& spec,
                    Report& report);
RunResult run_sweep(const RunContext& ctx, const WorkloadSpec& spec,
                    Report& report);
RunResult run_traced(const RunContext& ctx, const WorkloadSpec& spec,
                     const WorkloadSpec& serving, Report& report);

/// The workload's event trace for `seed` (the daemon sees only these).
mfa::scenario::Trace make_trace(const ServeSpec& spec, std::uint64_t seed);

/// The sweep grid: every paper case at every resource fraction, in case
/// then fraction order.
std::vector<mfa::core::Problem> sweep_problems(const SweepSpec& spec);

/// Splits [0, n) into consecutive requests of `batch` events.
std::vector<std::pair<std::size_t, std::size_t>> batches(std::size_t begin,
                                                         std::size_t end,
                                                         int batch);

/// The default portfolio lanes under the sweep's node-only budget.
mfa::runtime::PortfolioOptions sweep_portfolio(const SweepSpec& spec);

/// The largest GP+A deviation T among the portfolio's lanes.
double max_lane_t(const mfa::runtime::PortfolioOptions& options);

/// True when `r` has an allocation that passes Allocation::feasible() at
/// the requested fraction plus `max_t`, the GP+A deviation the winning
/// lane may have used.
bool feasible_within(const mfa::runtime::SolveResult& r, double max_t);

/// What one solve_all pass over the sweep grid produced.
struct PassCheck {
  std::string digest;  ///< over the sorted per-point result lines
  std::uint64_t allocated = 0;
  std::uint64_t infeasible = 0;  ///< proved infeasible
  /// No allocation and no proof, or one that fails feasible_within.
  std::uint64_t failed = 0;
  std::uint64_t proved = 0;
  /// Allocations past the swept fraction, within the GP+A deviation T.
  std::uint64_t over_fraction = 0;
  double goal_sum = 0.0;
};

PassCheck check_pass(const std::vector<mfa::core::Problem>& problems,
                     const std::vector<mfa::runtime::SolveResult>& results,
                     double max_t);

}  // namespace e2e
