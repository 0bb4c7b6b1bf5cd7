// mfalloc_cli — command-line front end over the library, for scripting
// design-space exploration without writing C++.
//
// Subcommands (flags live in src/cli/commands.cpp; run
// `mfalloc_cli <command> --help` for each one's block):
//
//   solve      one problem with GP+A, or the exact search
//   portfolio  every solving strategy raced under one deadline
//   sweep      the resource-fraction grid
//   simulate   solve + cycle-level pipeline simulation
//   gen        seeded random scenario → problem JSON (byte-reproducible)
//   gentrace   seeded arrival trace (Poisson arrivals, churn)
//   serve      replay a trace through a long-lived in-process AllocServer
//   post       ship a trace's events to a running mfallocd over HTTP
//
// `serve` prints per-event latency/goal JSON to stdout; `--log`
// additionally writes the *deterministic* event log (no wall-clock
// fields), byte-identical across runs for a fixed trace. `post` speaks
// the versioned wire API (net/api.hpp): events go up in batches as
// {"schema_version":5,"events":[...]}, outcomes come
// back per event; `--resume` asks GET /v1/stats how far the daemon got
// (e.g. after a crash + `mfallocd --recover`) and continues from there.
//
// The problem file format is documented in src/io/serialize.hpp and
// examples/data/custom_pipeline.json; the trace format in
// src/io/serialize.hpp as well.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "alloc/gpa.hpp"
#include "alloc/sweep.hpp"
#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "io/serialize.hpp"
#include "io/table.hpp"
#include "net/client.hpp"
#include "runtime/portfolio.hpp"
#include "runtime/sweep.hpp"
#include "scenario/generate.hpp"
#include "scenario/trace.hpp"
#include "service/alloc_server.hpp"
#include "sim/pipeline_sim.hpp"
#include "solver/exact.hpp"

namespace {

using mfa::cli::ArgParser;
using mfa::io::TextTable;

/// Prints a typed flag error plus the usage line; the `return 2`
/// convention marks usage errors (vs 1 for runtime failures).
int flag_error(const ArgParser& args, const mfa::Status& status) {
  std::fprintf(stderr, "error: %s\n%s\n", status.message().c_str(),
               args.usage_line().c_str());
  return 2;
}

mfa::StatusOr<mfa::core::Problem> load(const std::string& path) {
  auto text = mfa::io::read_file(path);
  if (!text.is_ok()) return text.status();
  auto problem = mfa::io::problem_from_text(text.value());
  if (!problem.is_ok()) return problem.status();
  if (mfa::Status valid = problem.value().validate(); !valid.is_ok()) {
    return valid;
  }
  return problem;
}

int cmd_solve(const mfa::core::Problem& p, const ArgParser& args) {
  const bool as_json = args.flag_set("json");
  if (args.flag_set("exact")) {
    auto r = mfa::solver::ExactSolver().solve(p);
    if (!r.is_ok()) {
      std::fprintf(stderr, "exact: %s\n", r.status().to_string().c_str());
      return 1;
    }
    if (as_json) {
      std::printf("%s\n",
                  mfa::io::to_json(r.value().allocation).dump(2).c_str());
    } else {
      std::printf("%s", r.value().allocation.to_string().c_str());
      std::printf("proved optimal: %s (%lld nodes, %.3f s)\n",
                  r.value().proved_optimal ? "yes" : "no",
                  static_cast<long long>(r.value().nodes),
                  r.value().seconds);
    }
    return 0;
  }
  auto r = mfa::alloc::GpaSolver().solve(p);
  if (!r.is_ok()) {
    std::fprintf(stderr, "GP+A: %s\n", r.status().to_string().c_str());
    return 1;
  }
  if (as_json) {
    std::printf("%s\n",
                mfa::io::to_json(r.value().allocation).dump(2).c_str());
  } else {
    std::printf("relaxed II %.4f ms -> discretized %.4f ms\n",
                r.value().relaxed_ii, r.value().discrete_ii);
    std::printf("%s", r.value().allocation.to_string().c_str());
  }
  return 0;
}

int cmd_portfolio(const mfa::core::Problem& p, const ArgParser& args) {
  mfa::runtime::PortfolioOptions options;
  const auto seconds =
      args.real_or("seconds", options.max_seconds, 1e-6, 1e9);
  if (!seconds.is_ok()) return flag_error(args, seconds.status());
  options.max_seconds = seconds.value();
  options.run_naive = args.flag_set("naive");
  const auto jobs = args.int_or("jobs", 0, 0, 4096);
  if (!jobs.is_ok()) return flag_error(args, jobs.status());

  const mfa::runtime::Portfolio portfolio(options,
                                          static_cast<int>(jobs.value()));
  const mfa::runtime::SolveResult r = portfolio.solve(p);

  TextTable lanes({"strategy", "status", "II (ms)", "phi", "goal",
                   "proved", "nodes", "seconds"});
  for (const mfa::runtime::StrategyOutcome& lane : r.lanes) {
    const bool ok = lane.status.is_ok() && std::isfinite(lane.goal);
    lanes.add_row(
        {lane.strategy, lane.status.is_ok() ? "ok" : lane.status.to_string(),
         ok ? TextTable::fmt(lane.ii, 3) : "-",
         ok ? TextTable::fmt(lane.phi, 3) : "-",
         ok ? TextTable::fmt(lane.goal, 3) : "-",
         lane.proved_optimal ? "yes" : "no",
         TextTable::fmt_int(static_cast<long long>(lane.nodes)),
         TextTable::fmt(lane.seconds, 4)});
  }
  std::printf("%s", lanes.to_string().c_str());
  if (!r.is_ok()) {
    std::fprintf(stderr, "portfolio: %s\n", r.status.to_string().c_str());
    return 1;
  }
  std::printf(
      "winner: %s  goal %.4f (II %.4f ms, phi %.4f)%s  [%lld nodes, "
      "%.3f s total]\n",
      r.winner.c_str(), r.goal, r.ii, r.phi,
      r.proved_optimal ? "  proved optimal" : "",
      static_cast<long long>(r.nodes), r.seconds);
  std::printf("%s", r.allocation->to_string().c_str());
  return 0;
}

int cmd_sweep(const mfa::core::Problem& p, const ArgParser& args) {
  const auto lo = ArgParser::parse_real(args.positionals()[1], "<lo%>",
                                        1e-6, 1e4);
  const auto hi = ArgParser::parse_real(args.positionals()[2], "<hi%>",
                                        1e-6, 1e4);
  const auto step = ArgParser::parse_real(args.positionals()[3], "<step%>",
                                          1e-6, 1e4);
  for (const auto* v : {&lo, &hi, &step}) {
    if (!v->is_ok()) return flag_error(args, v->status());
  }
  if (hi.value() < lo.value()) {
    return flag_error(args,
                      mfa::Status{mfa::Code::kInvalid, "<hi%> below <lo%>"});
  }

  mfa::alloc::Method method = mfa::alloc::Method::kGpa;
  const std::string m = args.value_or("method", "gpa");
  if (m == "minlp") {
    method = mfa::alloc::Method::kMinlp;
  } else if (m == "minlpg") {
    method = mfa::alloc::Method::kMinlpG;
  } else if (m != "gpa") {
    return flag_error(
        args, mfa::Status{mfa::Code::kInvalid,
                          "--method: expected gpa|minlp|minlpg, got '" + m +
                              "'"});
  }

  mfa::runtime::SweepOptions sweep;
  // Sequential unless asked: exact points carry wall-clock budgets, so
  // parallel contention can change what they prove (see bench/common.hpp).
  const auto jobs = args.int_or("jobs", 1, 0, 4096);
  if (!jobs.is_ok()) return flag_error(args, jobs.status());
  sweep.num_threads = static_cast<int>(jobs.value());
  sweep.config.constraints = mfa::alloc::constraint_range(
      lo.value() / 100.0, hi.value() / 100.0, step.value() / 100.0);
  sweep.config.exact.max_nodes = 5'000'000;
  sweep.config.exact.max_seconds = 30.0;
  const mfa::alloc::SweepSeries series =
      mfa::runtime::run_sweep(p, method, sweep);

  TextTable t({"R (%)", "II (ms)", "phi", "goal", "avg util %",
               "seconds"});
  for (const mfa::alloc::SweepPoint& pt : series.points) {
    if (!pt.feasible) {
      t.add_row({TextTable::fmt(100 * pt.constraint, 1), "-", "-", "-",
                 "-", TextTable::fmt(pt.seconds, 4)});
      continue;
    }
    std::string ii = TextTable::fmt(pt.ii, 3);
    if (!pt.proved_optimal) ii += "*";
    t.add_row({TextTable::fmt(100 * pt.constraint, 1), ii,
               TextTable::fmt(pt.phi, 3), TextTable::fmt(pt.goal, 3),
               TextTable::fmt(100 * pt.avg_utilization, 1),
               TextTable::fmt(pt.seconds, 4)});
  }
  std::printf("method: %s\n%s", mfa::alloc::method_name(series.method),
              t.to_string().c_str());
  return 0;
}

int cmd_simulate(const mfa::core::Problem& p, const ArgParser& args) {
  auto r = mfa::alloc::GpaSolver().solve(p);
  if (!r.is_ok()) {
    std::fprintf(stderr, "GP+A: %s\n", r.status().to_string().c_str());
    return 1;
  }
  mfa::sim::SimConfig cfg;
  const auto images = args.int_or("images", cfg.num_images, 1, 1 << 26);
  if (!images.is_ok()) return flag_error(args, images.status());
  cfg.num_images = static_cast<int>(images.value());
  if (args.has_value("images")) {
    cfg.warmup_images = cfg.num_images / 4;
    // The steady-state window needs >= 2 post-warmup completions.
    if (cfg.num_images < cfg.warmup_images + 2) {
      return flag_error(args,
                        mfa::Status{mfa::Code::kInvalid,
                                    "--images: too few for a steady-state "
                                    "window"});
    }
  }
  const mfa::sim::SimResult sim =
      mfa::sim::PipelineSimulator(cfg).run(r.value().allocation);
  std::printf("%s", r.value().allocation.to_string().c_str());
  std::printf(
      "simulated %d images: II %.3f ms (model %.3f), %.1f images/s, "
      "latency %.2f ms, worst throttle %.2fx\n",
      cfg.num_images, sim.measured_ii_ms, r.value().allocation.ii(),
      sim.throughput_ips, sim.pipeline_latency_ms, sim.max_throttle);
  TextTable t({"kernel", "busy %"});
  for (std::size_t k = 0; k < sim.stage_busy.size(); ++k) {
    t.add_row({p.app.kernels[k].name,
               TextTable::fmt(100 * sim.stage_busy[k], 1)});
  }
  std::printf("%s", t.to_string().c_str());
  return 0;
}

int cmd_gen(const ArgParser& args) {
  const std::string& out_path = args.positionals()[0];
  mfa::scenario::ScenarioSpec spec;
  const auto seed = args.uint64_or("seed", 0);
  if (!seed.is_ok()) return flag_error(args, seed.status());
  const auto kernels = args.int_or("kernels", 0, 1, 1 << 20);
  if (!kernels.is_ok()) return flag_error(args, kernels.status());
  if (args.has_value("kernels")) {
    spec.min_kernels = spec.max_kernels = static_cast<int>(kernels.value());
  }
  const auto fpgas = args.int_or("fpgas", 0, 1, 1 << 20);
  if (!fpgas.is_ok()) return flag_error(args, fpgas.status());
  if (args.has_value("fpgas")) {
    spec.min_fpgas = spec.max_fpgas = static_cast<int>(fpgas.value());
  }
  const auto classes = args.int_or("classes", spec.max_classes, 1, 1 << 10);
  if (!classes.is_ok()) return flag_error(args, classes.status());
  spec.max_classes = static_cast<int>(classes.value());
  const auto tightness = args.real_or("tightness", spec.tightness, 1e-9, 1.0);
  if (!tightness.is_ok()) return flag_error(args, tightness.status());
  spec.tightness = tightness.value();
  const auto skew = args.real_or("skew", spec.class_skew, 1e-9, 1.0);
  if (!skew.is_ok()) return flag_error(args, skew.status());
  spec.class_skew = skew.value();

  const mfa::core::Problem problem =
      mfa::scenario::generate(spec, seed.value());
  const std::string text = mfa::io::to_json(problem).dump(2) + "\n";
  if (out_path == "-") {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  if (mfa::Status st = mfa::io::write_file(out_path, text); !st.is_ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (seed %llu, %zu kernels, %d FPGAs)\n",
               out_path.c_str(),
               static_cast<unsigned long long>(seed.value()),
               problem.num_kernels(), problem.num_fpgas());
  return 0;
}

int cmd_gentrace(const ArgParser& args) {
  const std::string& out_path = args.positionals()[0];
  mfa::scenario::TraceSpec spec;
  const auto seed = args.uint64_or("seed", 0);
  if (!seed.is_ok()) return flag_error(args, seed.status());
  const auto events = args.int_or("events", spec.num_events, 1, 1 << 26);
  if (!events.is_ok()) return flag_error(args, events.status());
  spec.num_events = static_cast<int>(events.value());
  const auto fpgas = args.int_or("fpgas", spec.num_fpgas, 1, 1 << 20);
  if (!fpgas.is_ok()) return flag_error(args, fpgas.status());
  spec.num_fpgas = static_cast<int>(fpgas.value());
  const auto rate =
      args.real_or("rate", spec.arrival_rate_per_s, 1e-9, 1e9);
  if (!rate.is_ok()) return flag_error(args, rate.status());
  spec.arrival_rate_per_s = rate.value();
  const auto lifetime =
      args.real_or("lifetime", spec.mean_lifetime_s, 1e-9, 1e9);
  if (!lifetime.is_ok()) return flag_error(args, lifetime.status());
  spec.mean_lifetime_s = lifetime.value();

  const mfa::scenario::Trace trace =
      mfa::scenario::generate_trace(spec, seed.value());
  const std::string text = mfa::io::to_json(trace).dump(2) + "\n";
  if (out_path == "-") {
    std::fputs(text.c_str(), stdout);
    return 0;
  }
  if (mfa::Status st = mfa::io::write_file(out_path, text); !st.is_ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s (seed %llu, %zu events, %d FPGAs)\n",
               out_path.c_str(),
               static_cast<unsigned long long>(seed.value()),
               trace.events.size(), trace.platform.num_fpgas);
  return 0;
}

int cmd_serve(const ArgParser& args) {
  auto text = mfa::io::read_file(args.value_or("trace", ""));
  if (!text.is_ok()) {
    std::fprintf(stderr, "error: %s\n", text.status().to_string().c_str());
    return 1;
  }
  auto trace = mfa::io::trace_from_text(text.value());
  if (!trace.is_ok()) {
    std::fprintf(stderr, "error: %s\n",
                 trace.status().to_string().c_str());
    return 1;
  }

  mfa::service::ServerOptions options;
  options.portfolio.run_exact = args.flag_set("exact");
  const auto max_moves = args.int_or("max-moves", -1, -1, 1 << 30);
  if (!max_moves.is_ok()) return flag_error(args, max_moves.status());
  options.max_moves = static_cast<int>(max_moves.value());
  const auto max_disturbed = args.int_or("max-disturbed", -1, -1, 1 << 30);
  if (!max_disturbed.is_ok()) {
    return flag_error(args, max_disturbed.status());
  }
  options.max_disturbed = static_cast<int>(max_disturbed.value());

  auto opened = mfa::service::AllocServer::open(trace.value().platform,
                                               std::move(options));
  if (!opened.is_ok()) {
    std::fprintf(stderr, "error: %s\n", opened.status().to_string().c_str());
    return 1;
  }
  mfa::service::AllocServer& server = *opened.value();
  // Replay as fast as the solver allows: submit in trace order, wait
  // per event (the queue is MPMC; a replay is a single producer).
  std::vector<mfa::service::EventOutcome> outcomes;
  outcomes.reserve(trace.value().events.size());
  for (const mfa::service::Event& event : trace.value().events) {
    outcomes.push_back(server.apply(event));
  }
  server.stop();

  // Per-event latency/goal JSON on stdout, plus a latency summary.
  mfa::io::Json doc = mfa::io::Json::object();
  doc.set("events",
          mfa::io::Json::number(static_cast<double>(outcomes.size())));
  double total_s = 0.0;
  double max_s = 0.0;
  mfa::io::Json per_event = mfa::io::Json::array();
  for (const mfa::service::EventOutcome& o : outcomes) {
    total_s += o.seconds;
    max_s = std::max(max_s, o.seconds);
    mfa::io::Json row = mfa::io::to_json(o);
    row.set("latency_ms", mfa::io::Json::number(o.seconds * 1e3));
    per_event.push_back(std::move(row));
  }
  doc.set("mean_latency_ms",
          mfa::io::Json::number(outcomes.empty()
                                    ? 0.0
                                    : 1e3 * total_s / outcomes.size()));
  doc.set("max_latency_ms", mfa::io::Json::number(1e3 * max_s));
  doc.set("per_event", std::move(per_event));
  std::printf("%s\n", doc.dump(2).c_str());

  if (const std::string log_path = args.value_or("log", "");
      !log_path.empty()) {
    mfa::io::Json log = mfa::io::Json::array();
    for (const mfa::service::EventOutcome& o : outcomes) {
      // The deterministic outcome slice (io::to_json drops wall-clock
      // seconds) — byte-identical across runs, what CI diffs.
      log.push_back(mfa::io::to_json(o));
    }
    if (mfa::Status st = mfa::io::write_file(log_path, log.dump(2) + "\n");
        !st.is_ok()) {
      std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
      return 1;
    }
  }
  return 0;
}

/// Client events the daemon already processed, per GET /v1/stats
/// "events_processed" — the resume point after a crash + recovery. The
/// daemon de-duplicates broadcast resizes (counted by every shard), so
/// for an in-order single client this equals the count it posted.
mfa::StatusOr<std::size_t> daemon_progress(const std::string& host,
                                           std::uint16_t port) {
  auto reply = mfa::net::http_get(host, port, "/v1/stats");
  if (!reply.is_ok()) return reply.status();
  if (reply.value().status != 200) {
    return mfa::Status{mfa::Code::kInvalid,
                       "GET /v1/stats: HTTP " +
                           std::to_string(reply.value().status)};
  }
  auto doc = mfa::io::Json::parse(reply.value().body);
  if (!doc.is_ok()) return doc.status();
  const mfa::io::Json* done = doc.value().find("events_processed");
  if (done == nullptr || !done->is_number()) {
    return mfa::Status{mfa::Code::kInvalid,
                       "GET /v1/stats: no 'events_processed'"};
  }
  return static_cast<std::size_t>(done->as_number());
}

int cmd_post(const ArgParser& args) {
  auto text = mfa::io::read_file(args.value_or("trace", ""));
  if (!text.is_ok()) {
    std::fprintf(stderr, "error: %s\n", text.status().to_string().c_str());
    return 1;
  }
  auto trace = mfa::io::trace_from_text(text.value());
  if (!trace.is_ok()) {
    std::fprintf(stderr, "error: %s\n", trace.status().to_string().c_str());
    return 1;
  }
  const std::vector<mfa::service::Event>& events = trace.value().events;

  const std::string host = args.value_or("host", "127.0.0.1");
  const auto port = args.int_or("port", 0, 1, 65535);
  if (!port.is_ok()) return flag_error(args, port.status());
  const auto from_flag =
      args.int_or("from", 0, 0, static_cast<long long>(events.size()));
  if (!from_flag.is_ok()) return flag_error(args, from_flag.status());
  const auto count = args.int_or("count", -1, 0, 1LL << 32);
  if (!count.is_ok()) return flag_error(args, count.status());
  const auto batch = args.int_or("batch", 16, 1, 4096);
  if (!batch.is_ok()) return flag_error(args, batch.status());

  std::size_t from = static_cast<std::size_t>(from_flag.value());
  if (args.flag_set("resume")) {
    auto done = daemon_progress(host,
                                static_cast<std::uint16_t>(port.value()));
    if (!done.is_ok()) {
      std::fprintf(stderr, "error: %s\n",
                   done.status().to_string().c_str());
      return 1;
    }
    from = std::min(done.value(), events.size());
    std::fprintf(stderr, "resume: daemon has processed %zu events\n",
                 done.value());
  }
  std::size_t end = events.size();
  if (count.value() >= 0) {
    end = std::min(end, from + static_cast<std::size_t>(count.value()));
  }

  // Ship [from, end) in batches; print one outcome JSON line per event.
  std::size_t posted = 0;
  for (std::size_t i = from; i < end;) {
    const std::size_t n =
        std::min(static_cast<std::size_t>(batch.value()), end - i);
    mfa::io::Json body = mfa::io::Json::object();
    body.set("schema_version",
             mfa::io::Json::number(mfa::io::kSchemaVersion));
    mfa::io::Json list = mfa::io::Json::array();
    for (std::size_t k = 0; k < n; ++k) {
      list.push_back(mfa::io::to_json(events[i + k]));
    }
    body.set("events", std::move(list));
    auto reply = mfa::net::http_post(
        host, static_cast<std::uint16_t>(port.value()), "/v1/events",
        body.dump() + "\n");
    if (!reply.is_ok()) {
      std::fprintf(stderr, "error: %s (posted %zu of %zu)\n",
                   reply.status().to_string().c_str(), posted, end - from);
      return 1;
    }
    if (reply.value().status != 200) {
      std::fprintf(stderr, "error: HTTP %d: %s", reply.value().status,
                   reply.value().body.c_str());
      return 1;
    }
    auto doc = mfa::io::Json::parse(reply.value().body);
    if (!doc.is_ok()) {
      std::fprintf(stderr, "error: bad reply: %s\n",
                   doc.status().to_string().c_str());
      return 1;
    }
    const mfa::io::Json* outcomes = doc.value().find("outcomes");
    if (outcomes == nullptr || !outcomes->is_array() ||
        outcomes->size() != n) {
      std::fprintf(stderr, "error: reply lacks %zu outcomes\n", n);
      return 1;
    }
    for (std::size_t k = 0; k < outcomes->size(); ++k) {
      std::printf("%s\n", outcomes->at(k).dump().c_str());
    }
    posted += n;
    i += n;
  }
  std::fprintf(stderr, "posted %zu events [%zu, %zu) to %s:%lld\n", posted,
               from, end, host.c_str(),
               static_cast<long long>(port.value()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string program = "mfalloc_cli";
  if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
      std::strcmp(argv[1], "-h") == 0) {
    std::fputs(mfa::cli::global_usage(program).c_str(),
               argc < 2 ? stderr : stdout);
    return argc < 2 ? 2 : 0;
  }
  auto parser = mfa::cli::command_parser(program, argv[1]);
  if (!parser.is_ok()) {
    std::fprintf(stderr, "error: %s\n", parser.status().message().c_str());
    return 2;
  }
  ArgParser& args = parser.value();
  if (mfa::Status st = args.parse(argc - 2, argv + 2); !st.is_ok()) {
    return flag_error(args, st);
  }
  if (args.help_requested()) {
    std::fputs(args.help_text().c_str(), stdout);
    return 0;
  }

  const std::string command = argv[1];
  if (command == "gen") return cmd_gen(args);
  if (command == "gentrace") return cmd_gentrace(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "post") return cmd_post(args);

  auto problem = load(args.positionals()[0]);
  if (!problem.is_ok()) {
    std::fprintf(stderr, "error: %s\n",
                 problem.status().to_string().c_str());
    return 2;
  }
  if (command == "solve") return cmd_solve(problem.value(), args);
  if (command == "portfolio") return cmd_portfolio(problem.value(), args);
  if (command == "sweep") return cmd_sweep(problem.value(), args);
  if (command == "simulate") return cmd_simulate(problem.value(), args);
  std::fputs(mfa::cli::global_usage(program).c_str(), stderr);
  return 2;
}
