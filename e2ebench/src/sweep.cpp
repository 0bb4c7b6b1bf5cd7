// offline_sweep: the paper's design-space use, in-process.
//
// The three §4 cases over the resource-fraction grid, every point solved
// by runtime::BatchRunner with the default PortfolioOptions (GP+A lanes
// plus the structured exact lane) under a node-only budget, so every
// result is deterministic. The batch is solved repeatedly for --seconds;
// each pass must reproduce the first pass's results exactly, and every
// allocation must pass Allocation::feasible() (see feasible_within).
//
// A calibration job runs before the first set-up and after every pass;
// the BENCHMARK.json timings are in reference-host time (calibrate.hpp),
// the workload's own names (solves_per_s, point_ms, wall.*) in wall time.
//
// The grid is fixed, so the seed changes nothing here; its order is fixed
// too, since the order of the heavy VGG points decides how well the batch
// balances across workers.
#include <algorithm>
#include <cstdio>
#include <thread>

#include "calibrate.hpp"
#include "hls/paper.hpp"
#include "runtime/batch.hpp"
#include "workloads.hpp"

namespace e2e {

mfa::runtime::PortfolioOptions sweep_portfolio(const SweepSpec& spec) {
  mfa::runtime::PortfolioOptions options;
  options.max_nodes = spec.node_cap;
  options.max_seconds = 1e9;  // no wall-clock cap: results are deterministic
  options.exact.max_seconds = 1e9;
  return options;
}

double max_lane_t(const mfa::runtime::PortfolioOptions& options) {
  const std::vector<double>& t = options.gpa_t_max;
  return t.empty() ? 0.0 : *std::max_element(t.begin(), t.end());
}

bool feasible_within(const mfa::runtime::SolveResult& r, double max_t) {
  if (!r.allocation) return false;
  if (r.allocation->feasible()) return true;
  // GP+A lanes may exceed the requested fraction by up to their deviation
  // T (Algorithm 1, by design), never the device.
  mfa::core::Problem relaxed = *r.problem;
  relaxed.resource_fraction = std::min(1.0, relaxed.resource_fraction + max_t);
  return mfa::runtime::rebind(*r.allocation, relaxed).feasible();
}

PassCheck check_pass(const std::vector<mfa::core::Problem>& problems,
                     const std::vector<mfa::runtime::SolveResult>& results,
                     double max_t) {
  PassCheck c;
  std::vector<std::string> lines;
  lines.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const mfa::runtime::SolveResult& r = results[i];
    char line[256];
    std::snprintf(line, sizeof(line), "%s %.4f %s %.17g %.17g %lld %d",
                  problems[i].app.name.c_str(),
                  problems[i].resource_fraction,
                  r.status.to_string().c_str(), r.is_ok() ? r.goal : 0.0,
                  r.is_ok() ? r.ii : 0.0, static_cast<long long>(r.nodes),
                  r.proved_optimal ? 1 : 0);
    lines.emplace_back(line);
    if (r.proved_optimal) ++c.proved;
    if (r.allocation) {
      if (!feasible_within(r, max_t)) {
        ++c.failed;
        continue;
      }
      if (!r.allocation->feasible()) ++c.over_fraction;
      ++c.allocated;
      c.goal_sum += r.goal;
    } else if (r.status.code() == mfa::Code::kInfeasible) {
      ++c.infeasible;
    } else {
      ++c.failed;
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string joined;
  for (const std::string& l : lines) joined += l + "\n";
  c.digest = digest_hex(joined);
  return c;
}

std::vector<mfa::core::Problem> sweep_problems(const SweepSpec& spec) {
  const mfa::core::Problem cases[] = {
      mfa::hls::paper::case_alex16_2fpga(),
      mfa::hls::paper::case_alex32_4fpga(),
      mfa::hls::paper::case_vgg_8fpga()};
  const int points = static_cast<int>(
      (spec.fraction_hi - spec.fraction_lo) / spec.fraction_step + 0.5) + 1;
  std::vector<mfa::core::Problem> out;
  for (const mfa::core::Problem& c : cases) {
    for (int i = 0; i < points; ++i) {
      mfa::core::Problem p = c;
      p.resource_fraction = spec.fraction_lo + i * spec.fraction_step;
      out.push_back(std::move(p));
    }
  }
  return out;
}

RunResult run_sweep(const RunContext& ctx, const WorkloadSpec& spec,
                    Report& report) {
  const SweepSpec& s = spec.sweep;
  RunResult result;
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int workers = std::min(s.max_workers, hw);

  // ---- Set-up: build the instances, the requests and the runner. One
  // set-up takes tens of microseconds, so it is timed in blocks of
  // kSetupBlock and the median block mean is reported. One block runs
  // before the first pass and one after every pass, so the median samples
  // the host across the whole run, not only its first moments. Each block
  // follows a calibration: cal[k] is the one right before block k, and
  // cal[i], cal[i + 1] bracket pass i.
  constexpr int kSetupBlock = 200;
  std::vector<double> setup;
  std::vector<mfa::core::Problem> problems;
  std::vector<mfa::runtime::SolveRequest> requests;
  std::unique_ptr<mfa::runtime::BatchRunner> runner;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    for (int j = 0; j < kSetupBlock; ++j) {
      problems = sweep_problems(s);
      requests.clear();
      requests.reserve(problems.size());
      for (const mfa::core::Problem& p : problems) {
        requests.push_back(mfa::runtime::SolveRequest::of(p));
      }
      mfa::runtime::BatchOptions options;
      options.num_threads = workers;
      options.portfolio = sweep_portfolio(s);
      runner = std::make_unique<mfa::runtime::BatchRunner>(options);
    }
    setup.push_back(seconds_between(t0, Clock::now()) / kSetupBlock);
  };
  std::vector<double> cal{calibrate()};
  set_up();

  const auto t0 = Clock::now();
  const CpuTicks ticks0 = cpu_ticks();
  // ---- The batch, repeated.
  const double max_t = max_lane_t(sweep_portfolio(s));
  std::vector<double> pass_ms;
  WindowedSamples point_ms;  ///< one window per pass
  PassCheck first;
  bool deterministic = true;
  do {
    const auto p0 = Clock::now();
    const std::vector<mfa::runtime::SolveResult> results =
        runner->solve_all(requests);
    pass_ms.push_back(1e3 * seconds_between(p0, Clock::now()));
    for (const auto& r : results) {
      point_ms.add(pass_ms.size() - 1, 1e3 * r.seconds);
    }
    const PassCheck c = check_pass(problems, results, max_t);
    if (pass_ms.size() == 1) {
      first = c;
    } else if (c.digest != first.digest) {
      deterministic = false;
    }
    cal.push_back(calibrate());
    set_up();
  } while (seconds_between(t0, Clock::now()) < ctx.seconds);
  const double steal = steal_share(ticks0, cpu_ticks());

  const std::uint64_t points = problems.size();
  const std::uint64_t passes = pass_ms.size();
  if (!deterministic) {
    std::fprintf(stderr, "error: sweep results differ between passes\n");
    result.correct = false;
  }
  if (first.failed > 0) {
    std::fprintf(stderr,
                 "error: %llu sweep points without a feasible allocation or "
                 "an infeasibility proof\n",
                 static_cast<unsigned long long>(first.failed));
    result.correct = false;
  }
  result.attempted = points * passes;
  result.failed = first.failed * passes;

  std::vector<double> factors;  // per pass
  std::vector<double> pass_ref_ms;
  for (std::size_t i = 0; i < passes; ++i) {
    factors.push_back(host_factor(cal[i], cal[i + 1]));
    pass_ref_ms.push_back(pass_ms[i] * factors.back());
  }
  std::vector<double> setup_ref;
  for (std::size_t k = 0; k < setup.size(); ++k) {
    setup_ref.push_back(setup[k] * host_factor(cal[k], cal[k]));
  }
  const double solves_per_s =
      1e3 * static_cast<double>(points) / percentile(pass_ms, 0.5);
  const double ref_pass_ms = percentile(pass_ref_ms, 0.5);
  report.note("workload " + spec.name + ", seed " + std::to_string(ctx.seed) +
              ": " + std::to_string(points) + " points x " +
              std::to_string(passes) + " passes on " + std::to_string(workers) +
              " workers");
  report.note("outcome log digest " + first.digest + " over " +
              std::to_string(points) + " points" +
              (deterministic ? " (identical in every pass)" : " (MISMATCH)"));
  report.add("wall.setup_s", percentile(setup, 0.5), "s",
             setup.size() * kSetupBlock);
  report.add("solves_per_s", solves_per_s, "1/s", passes);
  report.add_windowed("point_ms", point_ms, "ms");
  report.add("failed_share", share(result.failed, result.attempted), "share",
             result.attempted);
  report.add("infeasible_share", share(first.infeasible, points), "share",
             points);
  report.add("mean_goal",
             first.allocated ? first.goal_sum / first.allocated : 0.0, "goal",
             first.allocated);
  report.add("proved_share", share(first.proved, points), "share", points);
  report.add("over_fraction_share", share(first.over_fraction, points),
             "share", points);
  report.add("peak_rss_mb", peak_rss_mb_of(0), "MiB", 1);
  report.add("bench.host_steal_share", steal, "share", 1);
  report.add("bench.calibration_ms_p50", 1e3 * percentile(cal, 0.5), "ms",
             cal.size());
  report.add("bench.host_factor_p50", percentile(factors, 0.5), "ratio",
             factors.size());
  report.add("wall.latency_ms_p50", percentile(pass_ms, 0.5), "ms", passes);
  report.add("wall.throughput_per_s", solves_per_s, "1/s", passes);
  // What a designer waits for is the whole grid: latency is a pass.
  report.add("setup_s", percentile(setup_ref, 0.5), "s",
             setup.size() * kSetupBlock);
  report.add("latency_ms_p50", ref_pass_ms, "ms", passes);
  report.add("latency_ms_p90", percentile(pass_ref_ms, 0.9), "ms", passes);
  report.add("throughput_per_s", 1e3 * static_cast<double>(points) / ref_pass_ms,
             "1/s", passes);
  return result;
}

}  // namespace e2e
