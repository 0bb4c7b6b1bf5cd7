// The offline design-space grid, solved point by point, as a golden.
//
// Solves the paper's three cases (AlexNet on 2 and 4 FPGAs, VGG-16 on 8)
// at every resource fraction from 0.50 to 1.00 in 0.01 steps with the
// default portfolio (GP+A lanes plus the exact lane) on one worker, under
// a node-only budget of 3,000,000 nodes and no wall-clock cap, so every
// answer is deterministic. For each point it prints the status, goal, II
// and φ to 17 significant digits, the winning lane, whether the exact
// lane proved the optimum, the nodes spent and the allocation rows (one
// group of per-FPGA CU counts per kernel, `|` between kernels). A last
// line counts the proved points and the nodes, in all and in the exact
// lane alone.
//
// bench/golden/sweep_grid.txt holds the expected output and ctest's
// paper_benches_golden compares it byte for byte: a change to the
// solvers that must keep every answer may move only the node counts and
// proof flags, and a change that moves the file rewrites it
// (./build/bench_sweep_grid > bench/golden/sweep_grid.txt).
#include <cstdio>
#include <string>
#include <vector>

#include "hls/paper.hpp"
#include "runtime/batch.hpp"

int main() {
  constexpr double kFractionLo = 0.50;
  constexpr double kFractionStep = 0.01;
  constexpr int kPoints = 51;

  std::vector<mfa::runtime::SolveRequest> requests;
  for (const mfa::core::Problem& base :
       {mfa::hls::paper::case_alex16_2fpga(),
        mfa::hls::paper::case_alex32_4fpga(),
        mfa::hls::paper::case_vgg_8fpga()}) {
    for (int i = 0; i < kPoints; ++i) {
      mfa::core::Problem p = base;
      p.resource_fraction = kFractionLo + i * kFractionStep;
      requests.push_back(mfa::runtime::SolveRequest::of(std::move(p)));
    }
  }

  mfa::runtime::BatchOptions batch;
  batch.num_threads = 1;
  batch.portfolio.max_nodes = 3'000'000;
  batch.portfolio.max_seconds = 1e9;
  batch.portfolio.exact.max_seconds = 1e9;
  const std::vector<mfa::runtime::SolveResult> results =
      mfa::runtime::BatchRunner(batch).solve_all(requests);

  int proved = 0;
  long long nodes = 0;
  long long exact_nodes = 0;
  for (const mfa::runtime::SolveResult& r : results) {
    std::printf("%s %.2f %s goal %.17g ii %.17g phi %.17g winner %s "
                "proved %d nodes %lld\n",
                r.problem->app.name.c_str(), r.problem->resource_fraction,
                r.status.to_string().c_str(), r.goal, r.ii, r.phi,
                r.winner.empty() ? "-" : r.winner.c_str(),
                r.proved_optimal ? 1 : 0, static_cast<long long>(r.nodes));
    if (r.allocation) {
      std::string rows = " ";
      for (std::size_t k = 0; k < r.allocation->num_kernels(); ++k) {
        if (k > 0) rows += " |";
        for (int f = 0; f < r.allocation->num_fpgas(); ++f) {
          rows += ' ' + std::to_string(r.allocation->cu(k, f));
        }
      }
      std::printf("%s\n", rows.c_str());
    }
    if (r.proved_optimal) ++proved;
    nodes += r.nodes;
    for (const mfa::runtime::StrategyOutcome& lane : r.lanes) {
      if (lane.strategy == "exact") exact_nodes += lane.nodes;
    }
  }
  std::printf("%zu points, %d proved, %lld nodes (%lld in the exact lane)\n",
              results.size(), proved, nodes, exact_nodes);
  return 0;
}
