// Serve workloads (serve_small): the real mfallocd over HTTP.
//
// One process drives the daemon through one keep-alive connection, from
// one ordered sender, so events for one pipeline stay in order. After a
// short closed-loop warm-up the measured time is split into kPeriods equal
// periods, each an open-loop phase (kOpenShare of the period) followed by
// a closed-loop phase, so a transient disturbance of the host lands in one
// period instead of one whole metric:
//
//   open loop    request k of a period is due at start + k·batch/rate;
//                every event of it is timed from that due time to the
//                receipt of its outcome, so a stall is charged to the
//                requests behind it.
//   closed loop  a fixed number of back-to-back POSTs; acknowledged
//                events per second over all periods' closed-loop phases.
//
// Both phases send fixed event counts, so a seed always times the same
// events; a period that overruns its share of --seconds delays the next.
//
// Before the daemon starts, the events the run will send are replayed
// through an in-process ShardRouter with the daemon's options: every
// daemon outcome must match the replay's byte for byte (apart from
// latency_ms), and GET /v1/stats must count exactly the events sent. The
// quality metrics (mean_goal, infeasible_share) come from the replay of
// the events after the warm-up, so they are a pure function of the seed
// and the run length. Running it first also brings the host up to speed
// before anything is timed.
//
// A calibration job (calibrate.hpp) runs right before and right after
// every closed-loop phase, while the daemon is idle: the BENCHMARK.json
// throughput_per_s is in reference-host time, events_per_s in wall time.
// The open-loop acks and the set-up stay in wall time: over five seeds,
// scaling them by the calibrations around them, or by the run's median
// calibration, widened their spread instead of narrowing it (an ack also
// waits on the WAL's fsync and on the daemon's other threads, which the
// client thread's job does not time).
#include <algorithm>
#include <cstdio>
#include <future>
#include <thread>

#include "calibrate.hpp"
#include "io/serialize.hpp"
#include "net/http.hpp"
#include "service/shard_router.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using mfa::io::Json;

constexpr int kSetupRepeats = 21;
constexpr int kPeriods = 5;
constexpr double kOpenShare = 0.7;
/// A run is invalid when the generator itself (not the daemon) made
/// requests this late at the 99th percentile.
constexpr double kMaxGeneratorLagMs = 2.0;

std::string get_request(const std::string& target) {
  return mfa::net::format_request("GET", target, "127.0.0.1", "");
}

Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

struct Exchange {
  std::size_t request = 0;  ///< index into the request list
  int period = -1;          ///< open-loop period it was sent in, -1 if none
  Clock::time_point due;
  Clock::time_point done;
  mfa::StatusOr<mfa::net::HttpResponse> response =
      mfa::Status{mfa::Code::kInvalid, "not sent"};
};

/// Spawns the daemon and waits for a 200 from /v1/healthz.
mfa::StatusOr<std::unique_ptr<Daemon>> start_daemon(
    const RunContext& ctx, const std::string& platform_path,
    const std::string& data_dir) {
  if (mfa::Status st = fresh_dir(data_dir); !st.is_ok()) return st;
  auto daemon = Daemon::spawn(ctx.daemon, {"--platform", platform_path,
                                           "--data", data_dir, "--port", "0"});
  if (!daemon.is_ok()) return daemon.status();
  const std::string healthz = get_request("/v1/healthz");
  for (int attempt = 0; attempt < 2000; ++attempt) {
    auto conn = Connection::open(daemon.value()->port());
    if (conn.is_ok()) {
      auto r = conn.value().exchange(healthz);
      if (r.is_ok() && r.value().status == 200) return daemon;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return mfa::Status{mfa::Code::kInvalid, "daemon never became healthy"};
}

}  // namespace

mfa::scenario::Trace make_trace(const ServeSpec& spec, std::uint64_t seed) {
  return mfa::scenario::generate_trace(spec.trace, seed);
}

std::vector<std::pair<std::size_t, std::size_t>> batches(std::size_t begin,
                                                         std::size_t end,
                                                         int batch) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t step = static_cast<std::size_t>(std::max(1, batch));
  for (std::size_t i = begin; i < end; i += step) {
    out.emplace_back(i, std::min(end, i + step));
  }
  return out;
}

RunResult run_serve(const RunContext& ctx, const WorkloadSpec& spec,
                    Report& report) {
  const ServeSpec& s = spec.serve;
  RunResult result;
  const auto fail = [&](const std::string& why) {
    std::fprintf(stderr, "error: %s\n", why.c_str());
    result.correct = false;
    return result;
  };

  const mfa::scenario::Trace trace = make_trace(s, ctx.seed);
  const std::vector<mfa::service::Event>& events = trace.events;
  const std::string platform_path = ctx.work_dir + "/platform.json";
  {
    Json doc = Json::object();
    doc.set("platform", mfa::io::to_json(trace.platform));
    if (!mfa::io::write_file(platform_path, doc.dump()).is_ok()) {
      return fail("cannot write " + platform_path);
    }
  }
  // Every request is formatted before the clock starts.
  const auto requests = batches(0, events.size(), s.batch);
  std::vector<std::string> wire;
  wire.reserve(requests.size());
  for (const auto& [b, e] : requests) {
    wire.push_back(mfa::net::format_request(
        "POST", "/v1/events", "127.0.0.1", events_body(events, b, e)));
  }
  const double period_s = ctx.seconds / kPeriods;
  const double open_s = period_s * kOpenShare;
  const double request_rate = s.offered_events_per_s / s.batch;
  const std::size_t open_requests = std::max<std::size_t>(
      1, static_cast<std::size_t>(open_s * request_rate));

  // ---- The events the run will send (both phases send fixed counts),
  // replayed in-process first with the daemon's options (mfallocd
  // defaults): the reference the daemon's outcomes must equal, the source
  // of the quality metrics, and a warm-up for the host before the clock
  // starts.
  const std::size_t warm_requests = static_cast<std::size_t>(
      (std::max(0, s.warmup_events) + s.batch - 1) / s.batch);
  const std::size_t closed_requests = static_cast<std::size_t>(
      (std::max(0, s.closed_events) + s.batch - 1) / s.batch);
  const std::size_t planned_requests = std::min(
      requests.size(),
      warm_requests + kPeriods * (open_requests + closed_requests));
  const std::size_t planned_events =
      planned_requests == 0 ? 0 : requests[planned_requests - 1].second;
  const std::size_t goal_begin = std::min<std::size_t>(
      planned_events, static_cast<std::size_t>(s.warmup_events));
  std::vector<std::string> replay_log;
  std::uint64_t infeasible = 0;
  std::uint64_t goal_n = 0;
  double goal_sum = 0.0;
  {
    mfa::service::RouterOptions options;  // 2 shards, default server
    auto router = mfa::service::ShardRouter::open(trace.platform, options);
    if (!router.is_ok()) return fail(router.status().to_string());
    std::vector<std::future<mfa::service::EventOutcome>> futures;
    futures.reserve(planned_events);
    for (std::size_t i = 0; i < planned_events; ++i) {
      futures.push_back(router.value()->submit(events[i]));
    }
    replay_log.reserve(planned_events);
    for (std::size_t i = 0; i < planned_events; ++i) {
      const mfa::service::EventOutcome o = futures[i].get();
      replay_log.push_back(mfa::io::to_json(o).dump());
      if (i < goal_begin) continue;
      if (!o.solve_status.is_ok()) {
        ++infeasible;
      } else if (o.active_pipelines > 0) {
        goal_sum += o.solve.goal;
        ++goal_n;
      }
    }
    router.value()->stop();
  }

  // ---- Set-up: spawn to first healthy /v1/healthz, several times.
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (daemon) daemon->stop();
    const auto t0 = Clock::now();
    auto started = start_daemon(ctx, platform_path,
                                ctx.work_dir + "/data" + std::to_string(i));
    if (!started.is_ok()) return fail(started.status().to_string());
    setup.push_back(seconds_between(t0, Clock::now()));
    daemon = std::move(started.value());
  }
  auto post_conn = Connection::open(daemon->port());
  if (!post_conn.is_ok()) return fail("connect failed");
  Connection& post = post_conn.value();

  std::vector<Exchange> posts;
  posts.reserve(requests.size());
  std::size_t next = 0;
  const auto send = [&](Clock::time_point due, int period) {
    Exchange x;
    x.request = next;
    x.period = period;
    x.due = due;
    x.response = post.exchange(wire[next]);
    x.done = Clock::now();
    ++next;
    const bool ok = x.response.is_ok();
    posts.push_back(std::move(x));
    return ok;
  };

  // ---- Warm-up (closed loop, untimed).
  bool transport_ok = true;
  while (transport_ok && next < std::min(warm_requests, requests.size())) {
    transport_ok = send(Clock::now(), -1);
  }

  // ---- The periods.
  std::vector<double> lag_ms;
  std::vector<double> closed_rates;
  std::size_t open_events = 0;
  std::size_t closed_events = 0;
  double open_elapsed = 0.0;
  double closed_elapsed = 0.0;
  std::vector<double> closed_factor;  // host factor, per closed phase
  double closed_ref_s = 0.0;          // closed-loop time, reference host
  const CpuTicks ticks0 = cpu_ticks();
  const auto t_begin = Clock::now() + std::chrono::milliseconds(5);
  for (int c = 0; c < kPeriods && transport_ok; ++c) {
    // A period that overran its slot (a slow daemon) delays the next one
    // instead of shortening it: every period times the same events.
    const auto start = std::max(t_begin + secs(c * period_s), Clock::now());
    const auto open_end = start + secs(open_s);
    // Open loop.
    Clock::time_point prev_done = start;
    for (std::size_t k = 0;
         transport_ok && k < open_requests && next < requests.size(); ++k) {
      const auto due = start + secs(k / request_rate);
      std::this_thread::sleep_until(due);
      lag_ms.push_back(
          1e3 * seconds_between(std::max(due, prev_done), Clock::now()));
      transport_ok = send(due, c);
      prev_done = posts.back().done;
      open_events += requests[posts.back().request].second -
                     requests[posts.back().request].first;
    }
    open_elapsed += seconds_between(start, std::max(prev_done, open_end));
    // Closed loop: a fixed number of events, back to back.
    const double cal_before = calibrate();
    const auto tc = Clock::now();
    std::size_t sent = 0;
    while (transport_ok && next < requests.size() &&
           sent < static_cast<std::size_t>(s.closed_events)) {
      transport_ok = send(Clock::now(), -1);
      sent += requests[posts.back().request].second -
              requests[posts.back().request].first;
    }
    const double elapsed = seconds_between(tc, Clock::now());
    closed_factor.push_back(host_factor(cal_before, calibrate()));
    closed_events += sent;
    closed_elapsed += elapsed;
    closed_ref_s += elapsed * closed_factor.back();
    if (elapsed > 0.0 && sent > 0) closed_rates.push_back(sent / elapsed);
  }
  if (next == requests.size()) {
    report.note("trace exhausted; raise num_events");
  }

  std::uint64_t events_processed = 0;
  {
    auto r = post.exchange(get_request("/v1/stats"));
    if (r.is_ok() && r.value().status == 200) {
      auto doc = Json::parse(r.value().body);
      const Json* p = doc.is_ok() ? doc.value().find("events_processed")
                                  : nullptr;
      if (p != nullptr && p->is_number()) {
        events_processed = static_cast<std::uint64_t>(p->as_number());
      }
    }
  }
  const double steal = steal_share(ticks0, cpu_ticks());
  const double daemon_rss = daemon->peak_rss_mb();
  daemon->stop();

  // ---- Outcomes: count, time, and keep the deterministic slice.
  const std::size_t sent_events = next == 0 ? 0 : requests[next - 1].second;
  std::vector<std::string> daemon_log;
  daemon_log.reserve(sent_events);
  WindowedSamples ack_ms;
  std::uint64_t failed_events = 0;
  for (const Exchange& x : posts) {
    const auto [b, e] = requests[x.request];
    const std::size_t n = e - b;
    const Json* outcomes = nullptr;
    mfa::StatusOr<Json> doc = mfa::Status{mfa::Code::kInvalid, "no reply"};
    if (x.response.is_ok() && x.response.value().status == 200) {
      doc = Json::parse(x.response.value().body);
      if (doc.is_ok()) outcomes = doc.value().find("outcomes");
    }
    if (outcomes == nullptr || !outcomes->is_array() || outcomes->size() != n) {
      failed_events += n;
      for (std::size_t i = 0; i < n; ++i) daemon_log.push_back("<missing>");
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Json& o = outcomes->at(i);
      daemon_log.push_back(deterministic_outcome(o));
      const Json* st = o.find("status");
      if (st == nullptr || !st->is_string() || st->as_string() != "ok") {
        ++failed_events;
        continue;
      }
      if (x.period >= 0) {
        ack_ms.add(static_cast<std::size_t>(x.period),
                   1e3 * seconds_between(x.due, x.done));
      }
    }
  }

  replay_log.resize(std::min(replay_log.size(), sent_events));
  std::string joined;
  for (const std::string& line : replay_log) joined += line + "\n";

  const long mismatch = first_mismatch(daemon_log, replay_log);
  std::uint64_t mismatched = 0;  // events whose outcome differs
  for (std::size_t i = 0; i < std::min(daemon_log.size(), replay_log.size());
       ++i) {
    if (daemon_log[i] != replay_log[i]) ++mismatched;
  }
  if (mismatch >= 0) {
    const auto at = static_cast<std::size_t>(mismatch);
    std::fprintf(stderr,
                 "error: daemon outcome %ld differs from the in-process "
                 "replay\n  daemon: %s\n  replay: %s\n",
                 mismatch,
                 at < daemon_log.size() ? daemon_log[at].c_str() : "<none>",
                 at < replay_log.size() ? replay_log[at].c_str() : "<none>");
    result.correct = false;
  }
  if (events_processed != sent_events) {
    std::fprintf(stderr,
                 "error: /v1/stats events_processed=%llu, sent %zu\n",
                 static_cast<unsigned long long>(events_processed),
                 sent_events);
    result.correct = false;
  }
  if (!transport_ok) result.correct = false;

  const double lag_p99 = percentile(lag_ms, 0.99);
  const bool valid = lag_p99 <= kMaxGeneratorLagMs;
  if (!valid) {
    std::fprintf(stderr,
                 "warning: run invalid, the generator fell behind its "
                 "schedule (lag p99 %.3f ms)\n",
                 lag_p99);
  }

  result.attempted = sent_events;
  result.failed = failed_events + mismatched;
  // Over every closed-loop event: per-event solve cost varies a lot along
  // a trace, and a mean over more events varies less between seeds than
  // the median period.
  const double events_per_s =
      closed_elapsed > 0.0 ? static_cast<double>(closed_events) / closed_elapsed
                           : 0.0;
  const std::size_t goal_events = planned_events - goal_begin;

  report.note("workload " + spec.name + ", seed " + std::to_string(ctx.seed) +
              ": " + std::to_string(sent_events) + " events sent in " +
              std::to_string(kPeriods) + " periods of " +
              std::to_string(period_s) + " s");
  report.note("outcome log digest " + digest_hex(joined) + " over " +
              std::to_string(replay_log.size()) + " events" +
              (mismatch < 0 ? " (daemon == in-process replay)"
                            : " (MISMATCH)"));
  report.note(std::string("run valid: ") + (valid ? "yes" : "NO"));
  {
    std::string rates = "closed-loop events/s per period:";
    for (const double r : closed_rates) rates += " " + std::to_string(r);
    report.note(rates);
  }
  report.add("setup_s", percentile(setup, 0.5), "s", setup.size());
  report.add_windowed("ack_ms", ack_ms, "ms");
  report.add("events_per_s", events_per_s, "1/s", closed_events);
  report.add("failed_share", share(result.failed, result.attempted), "share",
             result.attempted);
  report.add("infeasible_share", share(infeasible, goal_events), "share",
             goal_events);
  report.add("mean_goal", goal_n ? goal_sum / static_cast<double>(goal_n) : 0,
             "goal", goal_n);
  report.add("peak_rss_mb", daemon_rss, "MiB", 1);
  report.add("bench.generator_lag_ms_p99", lag_p99, "ms", lag_ms.size());
  report.add("bench.offered_events_per_s", s.offered_events_per_s, "1/s",
             open_events);
  report.add("bench.achieved_events_per_s",
             open_elapsed > 0.0 ? static_cast<double>(open_events) / open_elapsed
                                : 0.0,
             "1/s", open_events);
  report.add("bench.valid", valid ? 1.0 : 0.0, "bool", 1);
  report.add("bench.host_steal_share", steal, "share", 1);
  report.add("bench.warmup_requests", static_cast<double>(warm_requests),
             "count", 1);
  report.add("bench.host_factor_p50", percentile(closed_factor, 0.5), "ratio",
             closed_factor.size());
  report.add("wall.throughput_per_s", events_per_s, "1/s", closed_events);
  // The names every workload shares (BENCHMARK.json end_to_end).
  report.add_windowed("latency_ms", ack_ms, "ms");
  report.add("throughput_per_s",
             closed_ref_s > 0.0 ? static_cast<double>(closed_events) / closed_ref_s
                                : 0.0,
             "1/s", closed_events);
  return result;
}

}  // namespace e2e
