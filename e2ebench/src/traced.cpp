// The traced run (--trace 1): per-layer metrics.
//
// Replays a workload's inputs in-process and records a span (spans.hpp)
// around every call the benchmark makes into a layer's public functions.
// The daemon's stack is rebuilt piece by piece with mfallocd's default
// options (2 shards, 1 solver thread per shard, fsync'd WAL):
//
//   net      RequestParser::feed, format_response, Api::handle (POSTs
//            through an in-process HttpServer; GETs idle and while a POST
//            is in flight) and net::http_post round trips;
//   io       Json::parse + event_from_json per event, to_json(outcome) +
//            dump per outcome, wire bytes per event;
//   service  ShardRouter::submit per request, AllocServer::apply by event
//            type (shard 0's event stream) with observers on a second
//            thread, Wal::append with and without fsync,
//            Wal::write_snapshot, CompositeBuilder deltas + snapshot(),
//            OccupancyTracker::update;
//   runtime  Portfolio::solve of each shard composite with the server's
//            options and warm seed, BatchRunner::solve_all efficiency;
//   core, solver, alloc
//            the three GP+A stages one by one (solve_relaxation,
//            Discretizer::run, GreedyAllocator::allocate) beside
//            GpaSolver::solve per lane, and ExactSolver::solve.
//
// A sweep workload replays its serving-layer probes on a serve workload's
// trace (workloads.json "serving_probe") and takes the batch and exact
// probes from its own grid. Probe rounds repeat until --seconds elapse.
// Every probe checks what it gets back; the HTTP outcomes must equal the
// in-process router's byte for byte.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "alloc/gpa.hpp"
#include "alloc/greedy.hpp"
#include "core/relaxation.hpp"
#include "io/serialize.hpp"
#include "net/api.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "runtime/batch.hpp"
#include "runtime/portfolio.hpp"
#include "service/alloc_server.hpp"
#include "service/composite.hpp"
#include "service/occupancy.hpp"
#include "service/shard_router.hpp"
#include "service/wal.hpp"
#include "solver/discretize.hpp"
#include "solver/exact.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using mfa::io::Json;
using mfa::service::Event;
using mfa::service::PipelineSpec;

constexpr double kUs = 1e3;  // ns per µs
constexpr double kMs = 1e6;  // ns per ms
/// Request ids of round r start at r · kRoundIds.
constexpr std::uint64_t kRoundIds = 1'000'000;
/// Fsync'd appends per round (each costs a disk flush).
constexpr std::size_t kFsyncAppends = 256;
/// The apply probe writes a snapshot of shard 0's live state every this
/// many applied events. The daemon snapshots every 256 events; the cost
/// of one snapshot depends on the live state, not on the interval, and a
/// shorter one gives more samples.
constexpr std::size_t kSnapshotEvery = 16;
/// Pause between observer calls on the second thread.
constexpr auto kObserverPause = std::chrono::microseconds(200);
/// Events of the workload's trace the WAL, io and composite probes use
/// (each costs microseconds, so more of them than the solver probes).
constexpr std::size_t kCheapEvents = 2048;
/// Workers of the batch probes. The untraced sweep solves on one worker
/// (see workloads.json); the probes keep two so that
/// runtime.batch_efficiency measures the thread pool.
constexpr int kBatchProbeWorkers = 2;

mfa::net::HttpRequest get(const std::string& target) {
  mfa::net::HttpRequest r;
  r.method = "GET";
  r.target = target;
  r.version = "HTTP/1.1";
  return r;
}

const std::string& target_id(const Event& e) {
  return e.type == Event::Type::kAddPipeline ? e.pipeline.id : e.id;
}

const char* apply_span(Event::Type type) {
  switch (type) {
    case Event::Type::kAddPipeline:
      return "service.apply.add";
    case Event::Type::kRemovePipeline:
      return "service.apply.remove";
    case Event::Type::kReprioritize:
      return "service.apply.reprioritize";
    case Event::Type::kResizePlatform:
      return "service.apply.resize";
  }
  return "service.apply.unknown";
}

/// Counts probe calls and the ones whose output failed a check.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (correct) std::fprintf(stderr, "error: %s\n", what.c_str());
    correct = false;
  }
};

/// A heuristic SolveResult is acceptable when its allocation passes
/// feasible_within the portfolio's largest T, or when it has none and says
/// so: kInfeasible, or kLimit when every heuristic lane gave up (the daemon
/// reports both as a failed solve, not a failed event).
bool acceptable(const mfa::runtime::SolveResult& r, double max_t) {
  if (!r.allocation) {
    return r.status.code() == mfa::Code::kInfeasible ||
           r.status.code() == mfa::Code::kLimit;
  }
  return feasible_within(r, max_t);
}

/// One shard's composite after one event, as the daemon's shard sees it.
struct ShardComposite {
  std::uint64_t event = 0;
  std::size_t shard = 0;
  std::shared_ptr<const mfa::core::Problem> problem;
  std::vector<PipelineSpec> pipelines;  ///< composite order
};

/// The warm seed AllocServer derives from its previous solve, rebuilt
/// from outside: survivors carry their previous N̂, arrivals start at the
/// CU count meeting the previous ÎI, and the point is scaled back inside
/// the pooled caps.
struct WarmSeed {
  std::map<std::string, std::vector<double>> totals;
  double ii = 0.0;

  std::optional<mfa::core::RelaxedSolution> seed(
      const mfa::core::Problem& problem,
      const std::vector<PipelineSpec>& pipelines) const {
    if (ii <= 0.0) return std::nullopt;
    mfa::core::RelaxedSolution warm;
    warm.ii = ii;
    for (const PipelineSpec& pipe : pipelines) {
      auto it = totals.find(pipe.id);
      for (std::size_t k = 0; k < pipe.app.kernels.size(); ++k) {
        warm.n_hat.push_back(
            it != totals.end() && k < it->second.size()
                ? it->second[k]
                : std::max(1.0, pipe.app.kernels[k].wcet_ms * pipe.weight / ii));
      }
    }
    const mfa::core::ResourceVec pooled = problem.pooled_cap();
    double scale = 1.0;
    for (std::size_t axis = 0; axis < mfa::core::kNumResources; ++axis) {
      if (pooled.axis(axis) <= 0.0) continue;
      double used = 0.0;
      for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
        used += warm.n_hat[k] * problem.app.kernels[k].res.axis(axis);
      }
      if (used > 0.0) scale = std::min(scale, 0.95 * pooled.axis(axis) / used);
    }
    double bw = 0.0;
    for (std::size_t k = 0; k < problem.num_kernels(); ++k) {
      bw += warm.n_hat[k] * problem.app.kernels[k].bw;
    }
    if (bw > 0.0 && problem.pooled_bw_cap() > 0.0) {
      scale = std::min(scale, 0.95 * problem.pooled_bw_cap() / bw);
    }
    if (scale < 1.0) {
      warm.ii /= scale;
      for (double& n : warm.n_hat) n *= scale;
    }
    return warm;
  }

  void update(const mfa::runtime::SolveResult& result,
              const std::vector<PipelineSpec>& pipelines) {
    totals.clear();
    ii = 0.0;
    if (!result.is_ok() || !result.allocation) return;
    const bool relaxed =
        result.relaxed &&
        result.relaxed->n_hat.size() == result.allocation->num_kernels();
    std::size_t k = 0;
    for (const PipelineSpec& pipe : pipelines) {
      std::vector<double>& t = totals[pipe.id];
      for (std::size_t j = 0; j < pipe.app.kernels.size(); ++j, ++k) {
        t.push_back(relaxed ? result.relaxed->n_hat[k]
                            : static_cast<double>(result.allocation->total_cu(k)));
      }
    }
    ii = relaxed ? result.relaxed->ii : result.ii;
  }
};

/// Everything one round of the serving probes hands to the next probe.
struct Round {
  std::uint64_t base = 0;  ///< first request/event id of the round
  std::string dir;         ///< scratch directory of the round
  const mfa::scenario::Trace* trace = nullptr;
  std::size_t solve_events = 0;
  std::size_t cheap_events = 0;
  std::vector<std::pair<std::size_t, std::size_t>> requests;
  std::vector<std::string> bodies;
};

// ---- net: the daemon's stack in-process, over HTTP ------------------------

struct HttpRecord {
  std::vector<std::string> request_bytes;   ///< formatted POSTs
  std::vector<mfa::net::HttpResponse> replies;
  std::vector<std::string> outcome_lines;   ///< deterministic slices
  std::uint64_t body_bytes = 0;
  std::uint64_t reply_bytes = 0;
};

HttpRecord probe_http(const Round& round, Tracer& tracer, Checks& checks) {
  HttpRecord rec;
  mfa::service::RouterOptions options;
  options.wal_root = round.dir + "/http";
  auto router = mfa::service::ShardRouter::open(round.trace->platform, options);
  if (!router.is_ok()) {
    checks.expect(false, "router: " + router.status().to_string());
    return rec;
  }
  mfa::net::Api api(router.value().get());
  std::atomic<std::uint64_t> post_id{round.base};
  const mfa::net::ServerConfig config;  // loopback, ephemeral port
  mfa::net::HttpServer server(
      config, [&](const mfa::net::HttpRequest& request) {
        if (request.method != "POST") return api.handle(request);
        Tracer::Scope span(tracer, "net.api_post", post_id.fetch_add(1));
        return api.handle(request);
      });
  if (mfa::Status st = server.start(); !st.is_ok()) {
    checks.expect(false, "http server: " + st.to_string());
    return rec;
  }

  const mfa::net::HttpRequest reads[2] = {get("/v1/allocation"),
                                          get("/v1/occupancy")};
  std::atomic<bool> posting{false};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> busy_failed{0};
  std::thread reader([&] {
    for (std::uint64_t j = 0; !done.load();) {
      if (!posting.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      {
        Tracer::Scope span(tracer, "net.api_read_busy", round.base + j);
        if (api.handle(reads[j % 2]).status != 200) ++busy_failed;
      }
      ++j;
      std::this_thread::sleep_for(kObserverPause);
    }
  });

  for (std::size_t r = 0; r < round.requests.size(); ++r) {
    const auto [b, e] = round.requests[r];
    const std::string& body = round.bodies[r];
    rec.request_bytes.push_back(mfa::net::format_request(
        "POST", "/v1/events", "127.0.0.1", body));
    rec.body_bytes += body.size();
    posting.store(true);
    auto reply = [&] {
      Tracer::Scope span(tracer, "net.http_post", round.base + r);
      return mfa::net::http_post("127.0.0.1", server.port(), "/v1/events",
                                 body);
    }();
    posting.store(false);
    const Json* outcomes = nullptr;
    mfa::StatusOr<Json> doc = mfa::Status{mfa::Code::kInvalid, "no reply"};
    if (reply.is_ok() && reply.value().status == 200) {
      doc = Json::parse(reply.value().body);
      if (doc.is_ok()) outcomes = doc.value().find("outcomes");
    }
    const bool ok = outcomes != nullptr && outcomes->is_array() &&
                    outcomes->size() == e - b;
    checks.expect(ok, "POST /v1/events failed in the traced run");
    if (!ok) break;
    for (std::size_t i = 0; i < outcomes->size(); ++i) {
      rec.outcome_lines.push_back(deterministic_outcome(outcomes->at(i)));
    }
    rec.reply_bytes += reply.value().body.size();
    rec.replies.push_back(reply.value());
    for (const mfa::net::HttpRequest& read : reads) {
      Tracer::Scope span(tracer, "net.api_read_idle", round.base + r);
      checks.expect(api.handle(read).status == 200, "idle GET failed");
    }
  }
  done.store(true);
  reader.join();
  checks.expect(busy_failed.load() == 0, "GET under a POST failed");
  server.stop();
  router.value()->stop();
  return rec;
}

void probe_parse_format(const HttpRecord& rec, Tracer& tracer,
                        Checks& checks) {
  constexpr int kRepeats = 8;  // cheap calls: more samples per request
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t r = 0; r < rec.request_bytes.size(); ++r) {
      mfa::net::RequestParser parser;
      auto state = mfa::net::RequestParser::State::kIncomplete;
      {
        Tracer::Scope span(tracer, "net.parse", r);
        state = parser.feed(rec.request_bytes[r]);
      }
      checks.expect(state == mfa::net::RequestParser::State::kComplete &&
                        parser.request().target == "/v1/events",
                    "RequestParser did not parse a recorded POST");
    }
    for (std::size_t r = 0; r < rec.replies.size(); ++r) {
      std::string bytes;
      {
        Tracer::Scope span(tracer, "net.format", r);
        bytes = mfa::net::format_response(rec.replies[r], true);
      }
      checks.expect(bytes.size() > rec.replies[r].body.size(),
                    "format_response lost the body");
    }
  }
}

// ---- service: the router, one shard's server, the WAL, the composite -------

struct RouterPass {
  std::vector<mfa::service::EventOutcome> outcomes;
  double wall_s = 0.0;
  std::vector<double> request_ms;
};

RouterPass probe_router(const Round& round, Tracer& tracer, const char* sub,
                        Checks& checks) {
  RouterPass pass;
  mfa::service::RouterOptions options;
  options.wal_root = round.dir + "/" + sub;
  auto router = mfa::service::ShardRouter::open(round.trace->platform, options);
  if (!router.is_ok()) {
    checks.expect(false, "router: " + router.status().to_string());
    return pass;
  }
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < round.requests.size(); ++r) {
    const auto [b, e] = round.requests[r];
    const auto r0 = Clock::now();
    {
      Tracer::Scope span(tracer, "service.router", round.base + r);
      std::vector<std::future<mfa::service::EventOutcome>> futures;
      for (std::size_t i = b; i < e; ++i) {
        futures.push_back(router.value()->submit(round.trace->events[i]));
      }
      for (auto& f : futures) pass.outcomes.push_back(f.get());
    }
    pass.request_ms.push_back(1e3 * seconds_between(r0, Clock::now()));
  }
  pass.wall_s = seconds_between(t0, Clock::now());
  router.value()->stop();
  return pass;
}

void probe_io(const Round& round,
              const std::vector<mfa::service::EventOutcome>& outcomes,
              Tracer& tracer, Checks& checks) {
  for (std::size_t i = 0; i < round.cheap_events; ++i) {
    const std::string text = mfa::io::to_json(round.trace->events[i]).dump();
    mfa::StatusOr<Event> event = mfa::Status{mfa::Code::kInvalid, ""};
    {
      Tracer::Scope span(tracer, "io.decode", round.base + i);
      auto doc = Json::parse(text);
      if (doc.is_ok()) event = mfa::io::event_from_json(doc.value());
    }
    checks.expect(event.is_ok() &&
                      event.value().type == round.trace->events[i].type,
                  "event JSON did not round-trip");
  }
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    std::string text;
    {
      Tracer::Scope span(tracer, "io.encode", round.base + i);
      text = mfa::io::to_json(outcomes[i]).dump();
    }
    checks.expect(!text.empty(), "empty outcome encoding");
  }
}

void probe_wal(const Round& round, Tracer& tracer, Checks& checks) {
  for (const bool fsync : {true, false}) {
    auto wal = mfa::service::Wal::create(
        round.dir + (fsync ? "/wal-fsync" : "/wal-nofsync"),
        round.trace->platform, mfa::service::Wal::Options{fsync});
    if (!wal.is_ok()) {
      checks.expect(false, "wal: " + wal.status().to_string());
      return;
    }
    const std::size_t n =
        fsync ? std::min(round.cheap_events, kFsyncAppends) : round.cheap_events;
    const char* name =
        fsync ? "service.wal_append" : "service.wal_append_nofsync";
    for (std::size_t i = 0; i < n; ++i) {
      mfa::Status st;
      {
        Tracer::Scope span(tracer, name, round.base + i);
        st = wal.value().append(i, round.trace->events[i]);
      }
      checks.expect(st.is_ok(), "Wal::append: " + st.to_string());
    }
  }
}

/// Replays the cheap-event prefix through one CompositeBuilder per shard
/// (span around each delta + snapshot(), the server's steady state: the
/// previous snapshot stays pinned) and keeps the composites of the
/// solve-event prefix for the solver probes.
std::vector<ShardComposite> probe_composite(
    const Round& round, const mfa::service::ShardRouter& router,
    Tracer& tracer) {
  const std::size_t shards = router.num_shards();
  std::vector<mfa::service::CompositeBuilder> builders;
  for (std::size_t s = 0; s < shards; ++s) {
    builders.emplace_back(round.trace->platform,
                          mfa::service::CompositeConfig{});
  }
  std::vector<std::vector<PipelineSpec>> live(shards);
  std::vector<std::shared_ptr<const mfa::core::Problem>> pinned(shards);
  std::vector<ShardComposite> out;
  for (std::size_t i = 0; i < round.cheap_events; ++i) {
    const Event& e = round.trace->events[i];
    std::vector<std::size_t> touched;
    if (e.type == Event::Type::kResizePlatform) {
      for (std::size_t s = 0; s < shards; ++s) touched.push_back(s);
    } else {
      touched.push_back(router.shard_of(target_id(e)));
    }
    for (const std::size_t s : touched) {
      std::vector<PipelineSpec>& pipes = live[s];
      const auto it = std::find_if(
          pipes.begin(), pipes.end(),
          [&](const PipelineSpec& p) { return p.id == target_id(e); });
      const std::size_t index = static_cast<std::size_t>(it - pipes.begin());
      // The server leaves the composite alone for events it rejects.
      const bool known = it != pipes.end();
      if ((e.type == Event::Type::kAddPipeline && known) ||
          ((e.type == Event::Type::kRemovePipeline ||
            e.type == Event::Type::kReprioritize) &&
           !known)) {
        continue;
      }
      std::shared_ptr<const mfa::core::Problem> snap;
      {
        Tracer::Scope span(tracer, "service.composite", round.base + i);
        switch (e.type) {
          case Event::Type::kAddPipeline:
            pipes.push_back(e.pipeline);
            builders[s].add_pipeline(pipes.back());
            break;
          case Event::Type::kRemovePipeline:
            builders[s].remove_pipeline(index);
            pipes.erase(it);
            break;
          case Event::Type::kReprioritize:
            pipes[index].weight = e.weight;
            builders[s].reprioritize(index, pipes[index]);
            break;
          case Event::Type::kResizePlatform:
            builders[s].resize_platform(e.platform);
            break;
        }
        snap = builders[s].snapshot();
      }
      if (i < round.solve_events && !pipes.empty()) {
        out.push_back(ShardComposite{
            round.base + i, s,
            std::make_shared<const mfa::core::Problem>(*snap), pipes});
      }
      pinned[s] = std::move(snap);
    }
  }
  return out;
}

/// AllocServer::apply over shard 0's event stream (WAL on, fsync'd), with
/// observers called from a second thread while each apply runs, the
/// occupancy update timed on the incumbent, and periodic snapshots.
void probe_apply(const Round& round, const mfa::service::ShardRouter& router,
                 Tracer& tracer, Checks& checks) {
  mfa::service::ServerOptions options;
  options.wal_dir = round.dir + "/apply";
  auto server =
      mfa::service::AllocServer::open(round.trace->platform, options);
  auto snapshots =
      mfa::service::Wal::create(round.dir + "/snapshots", round.trace->platform);
  if (!server.is_ok() || !snapshots.is_ok()) {
    checks.expect(false, "apply probe set-up failed");
    return;
  }
  std::atomic<bool> applying{false};
  std::atomic<bool> done{false};
  std::thread observer([&] {
    for (std::uint64_t j = 0; !done.load();) {
      if (!applying.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        continue;
      }
      {
        Tracer::Scope span(tracer, "service.observer_wait", round.base + j);
        const auto occupancy = server.value()->occupancy();
        const auto incumbent = server.value()->incumbent();
        (void)occupancy;
        (void)incumbent;
      }
      ++j;
      std::this_thread::sleep_for(kObserverPause);
    }
  });

  std::vector<PipelineSpec> live;
  mfa::core::Platform platform = round.trace->platform;
  mfa::service::OccupancyTracker tracker;
  std::size_t applied = 0;
  for (std::size_t i = 0; i < round.solve_events; ++i) {
    const Event& e = round.trace->events[i];
    if (e.type != Event::Type::kResizePlatform &&
        router.shard_of(target_id(e)) != 0) {
      continue;
    }
    applying.store(true);
    mfa::service::EventOutcome outcome = [&] {
      Tracer::Scope span(tracer, apply_span(e.type), round.base + i);
      return server.value()->apply(e);
    }();
    applying.store(false);
    ++applied;
    checks.expect(outcome.status.is_ok(),
                  "apply: " + outcome.status.to_string());
    if (outcome.status.is_ok()) {
      switch (e.type) {
        case Event::Type::kAddPipeline:
          live.push_back(e.pipeline);
          break;
        case Event::Type::kRemovePipeline:
          live.erase(std::find_if(live.begin(), live.end(),
                                  [&](const PipelineSpec& p) {
                                    return p.id == e.id;
                                  }));
          break;
        case Event::Type::kReprioritize:
          for (PipelineSpec& p : live) {
            if (p.id == e.id) p.weight = e.weight;
          }
          break;
        case Event::Type::kResizePlatform:
          platform = e.platform;
          break;
      }
    }
    if (outcome.status.is_ok() && outcome.solve_status.is_ok() &&
        !live.empty()) {
      const auto incumbent = server.value()->incumbent();
      if (incumbent && incumbent->allocation) {
        Tracer::Scope span(tracer, "service.occupancy", round.base + i);
        tracker.update(*incumbent->problem, live, *incumbent->allocation);
      }
    }
    if (applied % kSnapshotEvery == 0) {
      mfa::service::WalSnapshot snapshot;
      snapshot.sequence = applied;
      snapshot.platform = platform;
      snapshot.pipelines = live;
      snapshot.placements = server.value()->occupancy().placements();
      mfa::Status st;
      {
        Tracer::Scope span(tracer, "service.wal_snapshot", round.base + i);
        st = snapshots.value().write_snapshot(snapshot);
      }
      checks.expect(st.is_ok(), "write_snapshot: " + st.to_string());
    }
  }
  done.store(true);
  observer.join();
  server.value()->stop();
}

// ---- runtime, core, solver, alloc ------------------------------------------

/// Hits and misses of the caches the stage probes pass in, over all rounds.
struct CacheTally {
  std::uint64_t relax_hits = 0;
  std::uint64_t relax_misses = 0;
  std::uint64_t greedy_hits = 0;
  std::uint64_t greedy_misses = 0;
};

void probe_solvers(const std::vector<ShardComposite>& composites,
                   std::size_t shards, CacheTally& tally, Tracer& tracer,
                   Checks& checks, std::vector<double>& discretize_nodes) {
  const mfa::service::ServerOptions server;  // the daemon's solver options
  const mfa::runtime::PortfolioOptions& base = server.portfolio;
  const mfa::core::CacheConfig cache_config{server.cache_shards,
                                            server.cache_entries};
  // One portfolio per shard with the shard's own caches, as AllocServer
  // wires them.
  std::vector<std::unique_ptr<mfa::core::RelaxationCache>> relax;
  std::vector<std::unique_ptr<mfa::alloc::GreedyCache>> greedy;
  std::vector<mfa::core::SolverContext> contexts(shards);
  std::vector<std::unique_ptr<mfa::runtime::Portfolio>> portfolios;
  for (std::size_t s = 0; s < shards; ++s) {
    relax.push_back(std::make_unique<mfa::core::RelaxationCache>(cache_config));
    greedy.push_back(std::make_unique<mfa::alloc::GreedyCache>());
    contexts[s].relax_cache = relax[s].get();
    mfa::runtime::PortfolioOptions options = base;
    options.context = &contexts[s];
    options.gpa.greedy.cache = greedy[s].get();
    portfolios.push_back(std::make_unique<mfa::runtime::Portfolio>(options, 1));
  }
  // The stage probes and the GpaSolver probe each get their own caches,
  // shared by the lanes like the portfolio's.
  mfa::core::RelaxationCache stage_relax(cache_config);
  mfa::alloc::GreedyCache stage_greedy;
  mfa::core::RelaxationCache gpa_relax(cache_config);
  mfa::alloc::GreedyCache gpa_greedy;
  std::vector<WarmSeed> seeds(shards);
  mfa::core::SolverContext gpa_context;
  gpa_context.relax_cache = &gpa_relax;

  for (const ShardComposite& c : composites) {
    const mfa::core::Problem& p = *c.problem;
    mfa::runtime::SolveRequest request;
    request.problem = c.problem;
    request.warm = seeds[c.shard].seed(p, c.pipelines);
    const mfa::runtime::SolveResult result = [&] {
      Tracer::Scope span(tracer, "runtime.portfolio", c.event);
      return portfolios[c.shard]->solve(request);
    }();
    checks.expect(acceptable(result, max_lane_t(base)),
                  "portfolio result not feasible: " + result.status.to_string());
    seeds[c.shard].update(result, c.pipelines);

    for (const double t : base.gpa_t_max) {
      {
        Tracer::Scope stages(tracer, "alloc.stages", c.event);
        mfa::StatusOr<mfa::core::RelaxedSolution> root = [&] {
          Tracer::Scope span(tracer, "core.relax", c.event);
          return mfa::core::solve_relaxation(
              p, mfa::core::CuBounds::defaults(p),
              request.warm ? request.warm->ii : 0.0);
        }();
        if (!root.is_ok()) continue;
        mfa::solver::DiscretizeOptions d = base.gpa.discretize;
        d.cache = &stage_relax;
        auto totals = [&] {
          Tracer::Scope span(tracer, "solver.discretize", c.event);
          return mfa::solver::Discretizer(d).run(p, root.value());
        }();
        checks.expect(totals.is_ok() ||
                          totals.status().code() == mfa::Code::kInfeasible,
                      "discretize: " + totals.status().to_string());
        if (!totals.is_ok()) continue;
        discretize_nodes.push_back(
            static_cast<double>(totals.value().nodes));
        mfa::alloc::GreedyOptions g = base.gpa.greedy;
        g.t_max = t;
        g.cache = &stage_greedy;
        auto placed = [&] {
          Tracer::Scope span(tracer, "alloc.greedy", c.event);
          return mfa::alloc::GreedyAllocator(g).allocate(p,
                                                         totals.value().totals);
        }();
        checks.expect(placed.is_ok() ||
                          placed.status().code() == mfa::Code::kInfeasible,
                      "greedy: " + placed.status().to_string());
      }
      mfa::alloc::GpaOptions gpa = base.gpa;
      gpa.greedy.t_max = t;
      gpa.greedy.cache = &gpa_greedy;
      gpa.context = &gpa_context;
      gpa.warm = request.warm;
      auto solved = [&] {
        Tracer::Scope span(tracer, "alloc.gpa", c.event);
        return mfa::alloc::GpaSolver(gpa).solve(p);
      }();
      checks.expect(solved.is_ok() ||
                        solved.status().code() == mfa::Code::kInfeasible,
                    "gpa: " + solved.status().to_string());
    }
  }
  const auto r = stage_relax.stats();
  const auto g = stage_greedy.stats();
  tally.relax_hits += r.hits;
  tally.relax_misses += r.misses;
  tally.greedy_hits += g.hits;
  tally.greedy_misses += g.misses;
}

struct ExactTally {
  std::vector<double> nodes;
  double node_seconds = 0.0;
  std::uint64_t proved = 0;
  std::uint64_t runs = 0;
};

void probe_exact(const std::vector<std::shared_ptr<const mfa::core::Problem>>&
                     problems,
                 std::int64_t node_cap, Tracer& tracer, Checks& checks,
                 ExactTally& tally) {
  mfa::solver::ExactOptions options;
  options.max_nodes = node_cap;
  options.max_seconds = 1e9;  // node-only: deterministic
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const auto t0 = Clock::now();
    auto r = [&] {
      Tracer::Scope span(tracer, "solver.exact", i);
      return mfa::solver::ExactSolver(options).solve(*problems[i]);
    }();
    const double seconds = seconds_between(t0, Clock::now());
    ++tally.runs;
    if (r.is_ok()) {
      checks.expect(r.value().allocation.feasible(),
                    "exact allocation not feasible");
      tally.nodes.push_back(static_cast<double>(r.value().nodes));
      tally.node_seconds += seconds;
      if (r.value().proved_optimal) ++tally.proved;
    } else {
      // A node cap with no incumbent yet is a budget outcome, not an error.
      checks.expect(r.status().code() == mfa::Code::kInfeasible ||
                        r.status().code() == mfa::Code::kLimit,
                    "exact: " + r.status().to_string());
    }
  }
}

/// BatchRunner::solve_all over `requests`; returns the efficiency
/// Σ per-request solve time / (workers × wall).
double probe_batch(const std::vector<mfa::runtime::SolveRequest>& requests,
                   const mfa::runtime::PortfolioOptions& portfolio, int workers,
                   mfa::core::RelaxationCache& cache, Tracer& tracer,
                   std::vector<mfa::runtime::SolveResult>& results) {
  mfa::core::SolverContext context;
  context.relax_cache = &cache;
  mfa::runtime::BatchOptions options;
  options.num_threads = workers;
  options.portfolio = portfolio;
  options.context = &context;
  const mfa::runtime::BatchRunner runner(options);
  const auto t0 = Clock::now();
  {
    Tracer::Scope span(tracer, "runtime.solve_all", 0);
    results = runner.solve_all(requests);
  }
  const double wall = seconds_between(t0, Clock::now());
  double busy = 0.0;
  for (const auto& r : results) busy += r.seconds;
  return wall > 0.0 ? busy / (workers * wall) : 0.0;
}

/// Cost of recording one span, measured on a private tracer.
double span_cost_ns() {
  constexpr int kSpans = 20000;
  Tracer t;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) Tracer::Scope span(t, "bench.empty", i);
  return 1e9 * seconds_between(t0, Clock::now()) / kSpans;
}

double hit_ratio(std::uint64_t hits, std::uint64_t misses) {
  return share(hits, hits + misses);
}

}  // namespace

RunResult run_traced(const RunContext& ctx, const WorkloadSpec& spec,
                     const WorkloadSpec& serving, Report& report) {
  const ServeSpec& s = serving.serve;
  const bool sweep = spec.kind == "sweep";
  Tracer tracer;
  Tracer untraced(false);
  Checks checks;
  const mfa::scenario::Trace trace = make_trace(s, ctx.seed);

  CacheTally cache_tally;
  std::vector<double> discretize_nodes;
  ExactTally exact;
  std::vector<double> batch_efficiency;
  std::uint64_t batch_hits = 0;
  std::uint64_t batch_misses = 0;
  std::uint64_t body_bytes = 0;
  std::uint64_t reply_bytes = 0;
  std::uint64_t http_events = 0;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double untraced_wall = 0.0;
  double traced_wall = 0.0;
  std::uint64_t router_events = 0;
  std::string digest;

  const CpuTicks ticks0 = cpu_ticks();
  const auto t0 = Clock::now();
  int rounds = 0;
  do {
    Round round;
    round.base = static_cast<std::uint64_t>(rounds) * kRoundIds;
    round.dir = ctx.work_dir + "/round" + std::to_string(rounds);
    if (!fresh_dir(round.dir).is_ok()) {
      checks.expect(false, "cannot create " + round.dir);
      break;
    }
    round.trace = &trace;
    round.solve_events = std::min<std::size_t>(
        trace.events.size(), static_cast<std::size_t>(s.traced_solve_events));
    round.cheap_events = std::min<std::size_t>(
        trace.events.size(), kCheapEvents);
    round.requests = batches(0, round.solve_events, s.batch);
    for (const auto& [b, e] : round.requests) {
      round.bodies.push_back(events_body(trace.events, b, e));
    }

    // net + the byte-equality check against the in-process router.
    const HttpRecord http = probe_http(round, tracer, checks);
    probe_parse_format(http, tracer, checks);
    body_bytes += http.body_bytes;
    reply_bytes += http.reply_bytes;
    http_events += http.outcome_lines.size();
    // The same replay without and with spans, alternating which goes
    // first: the difference is the tracing overhead.
    RouterPass plain;
    RouterPass pass;
    if (rounds % 2 == 0) {
      plain = probe_router(round, untraced, "router-u", checks);
      pass = probe_router(round, tracer, "router-t", checks);
    } else {
      pass = probe_router(round, tracer, "router-t", checks);
      plain = probe_router(round, untraced, "router-u", checks);
    }
    untraced_ms.insert(untraced_ms.end(), plain.request_ms.begin(),
                       plain.request_ms.end());
    traced_ms.insert(traced_ms.end(), pass.request_ms.begin(),
                     pass.request_ms.end());
    untraced_wall += plain.wall_s;
    traced_wall += pass.wall_s;
    router_events += pass.outcomes.size();
    std::vector<std::string> replay;
    std::string joined;
    for (const auto& o : pass.outcomes) {
      replay.push_back(mfa::io::to_json(o).dump());
      joined += replay.back() + "\n";
    }
    digest = digest_hex(joined);
    const long mismatch = first_mismatch(http.outcome_lines, replay);
    checks.expect(mismatch < 0, "HTTP outcome " + std::to_string(mismatch) +
                                    " differs from the in-process router");

    probe_io(round, pass.outcomes, tracer, checks);
    probe_wal(round, tracer, checks);
    mfa::service::RouterOptions plain_options;  // shard_of only: no WAL
    auto router =
        mfa::service::ShardRouter::open(trace.platform, plain_options);
    if (!router.is_ok()) {
      checks.expect(false, "router: " + router.status().to_string());
      break;
    }
    const std::vector<ShardComposite> composites =
        probe_composite(round, *router.value(), tracer);
    probe_apply(round, *router.value(), tracer, checks);
    probe_solvers(composites, router.value()->num_shards(), cache_tally, tracer,
                  checks, discretize_nodes);
    router.value()->stop();

    if (sweep) {
      // The grid: one batch pass, then the exact search on a sample.
      const SweepSpec& w = spec.sweep;
      const std::vector<mfa::core::Problem> problems =
          sweep_problems(w);
      std::vector<mfa::runtime::SolveRequest> requests;
      for (const auto& p : problems) {
        requests.push_back(mfa::runtime::SolveRequest::of(p));
      }
      const int hw = static_cast<int>(
          std::max(1u, std::thread::hardware_concurrency()));
      mfa::core::RelaxationCache cache;
      std::vector<mfa::runtime::SolveResult> results;
      batch_efficiency.push_back(probe_batch(
          requests, sweep_portfolio(w), std::min(kBatchProbeWorkers, hw), cache,
          tracer, results));
      const auto stats = cache.stats();
      batch_hits += stats.hits;
      batch_misses += stats.misses;
      const PassCheck pc =
          check_pass(problems, results, max_lane_t(sweep_portfolio(w)));
      checks.expect(pc.failed == 0, "sweep point without a feasible answer");
      std::vector<std::shared_ptr<const mfa::core::Problem>> sample;
      const std::size_t step = std::max<std::size_t>(
          1, problems.size() / std::max(1, w.exact_probe_points));
      for (std::size_t i = 0; i < problems.size(); i += step) {
        sample.push_back(std::make_shared<const mfa::core::Problem>(problems[i]));
      }
      probe_exact(sample, w.node_cap, tracer, checks, exact);
    } else {
      // The serving composites as one batch (server lanes, 2 workers), and
      // the exact search on an even sample of them.
      std::vector<mfa::runtime::SolveRequest> requests;
      for (const ShardComposite& c : composites) {
        mfa::runtime::SolveRequest r;
        r.problem = c.problem;
        requests.push_back(std::move(r));
      }
      mfa::core::RelaxationCache cache;
      std::vector<mfa::runtime::SolveResult> results;
      const mfa::runtime::PortfolioOptions server =
          mfa::service::ServerOptions().portfolio;
      batch_efficiency.push_back(
          probe_batch(requests, server, kBatchProbeWorkers, cache, tracer,
                      results));
      for (const auto& r : results) {
        checks.expect(acceptable(r, max_lane_t(server)),
                      "batch result not feasible");
      }
      std::vector<std::shared_ptr<const mfa::core::Problem>> sample;
      const std::size_t want =
          static_cast<std::size_t>(std::max(1, s.exact_probe_problems));
      for (std::size_t i = 0; i < want && !composites.empty(); ++i) {
        sample.push_back(composites[(i * composites.size()) / want].problem);
      }
      probe_exact(sample, s.exact_probe_nodes, tracer, checks, exact);
    }
    remove_tree(round.dir);
    ++rounds;
  } while (checks.correct && seconds_between(t0, Clock::now()) < ctx.seconds);

  // ---- Per-layer metrics from the spans.
  const auto summary = [&](const std::string& metric, const char* span,
                           double unit_ns, const char* unit, bool p99) {
    const std::vector<double> v = tracer.durations(span, unit_ns);
    const Summary sm = summarize(v);
    report.add(metric + "_p50", sm.p50, unit, sm.n);
    if (p99) report.add(metric + "_p99", sm.p99, unit, sm.n);
  };
  summary("net.parse_us", "net.parse", kUs, "us", true);
  summary("net.format_us", "net.format", kUs, "us", false);
  summary("net.api_post_ms", "net.api_post", kMs, "ms", true);
  {
    const auto round_trip = tracer.by_id("net.http_post", kMs);
    const auto handled = tracer.by_id("net.api_post", kMs);
    std::vector<double> transport;
    for (const auto& [id, ms] : round_trip) {
      auto it = handled.find(id);
      if (it != handled.end()) transport.push_back(ms - it->second);
    }
    const Summary sm = summarize(transport);
    report.add("net.transport_ms_p50", sm.p50, "ms", sm.n);
    report.add("net.transport_ms_p99", sm.p99, "ms", sm.n);
  }
  summary("net.api_read_idle_ms", "net.api_read_idle", kMs, "ms", false);
  summary("net.api_read_busy_ms", "net.api_read_busy", kMs, "ms", true);
  summary("io.decode_us", "io.decode", kUs, "us", false);
  summary("io.encode_us", "io.encode", kUs, "us", false);
  report.add("io.request_bytes",
             http_events ? static_cast<double>(body_bytes) / http_events : 0.0,
             "bytes", http_events);
  report.add("io.response_bytes",
             http_events ? static_cast<double>(reply_bytes) / http_events : 0.0,
             "bytes", http_events);
  summary("service.router_ms", "service.router", kMs, "ms", true);
  {
    std::vector<double> all;
    for (const Event::Type type :
         {Event::Type::kAddPipeline, Event::Type::kRemovePipeline,
          Event::Type::kReprioritize, Event::Type::kResizePlatform}) {
      const std::vector<double> v = tracer.durations(apply_span(type), kMs);
      all.insert(all.end(), v.begin(), v.end());
      const Summary sm = summarize(v);
      report.add(std::string("service.apply_") +
                     mfa::service::to_string(type) + "_ms_p50",
                 sm.p50, "ms", sm.n);
    }
    const Summary sm = summarize(all);
    report.add("service.apply_ms_p50", sm.p50, "ms", sm.n);
    report.add("service.apply_ms_p99", sm.p99, "ms", sm.n);
  }
  summary("service.wal_append_us", "service.wal_append", kUs, "us", false);
  summary("service.wal_append_nofsync_us", "service.wal_append_nofsync", kUs,
          "us", false);
  summary("service.wal_snapshot_ms", "service.wal_snapshot", kMs, "ms", false);
  summary("service.composite_us", "service.composite", kUs, "us", false);
  summary("service.occupancy_us", "service.occupancy", kUs, "us", false);
  summary("service.observer_wait_ms", "service.observer_wait", kMs, "ms",
          true);
  summary("runtime.portfolio_ms", "runtime.portfolio", kMs, "ms", true);
  {
    const Summary sm = summarize(batch_efficiency);
    report.add("runtime.batch_efficiency", sm.p50, "share", sm.n);
  }
  summary("core.relax_us", "core.relax", kUs, "us", false);
  if (sweep) {
    report.add("core.relax_cache_hit_ratio", hit_ratio(batch_hits, batch_misses),
               "share", batch_hits + batch_misses);
  } else {
    report.add("core.relax_cache_hit_ratio",
               hit_ratio(cache_tally.relax_hits, cache_tally.relax_misses),
               "share", cache_tally.relax_hits + cache_tally.relax_misses);
  }
  summary("solver.discretize_ms", "solver.discretize", kMs, "ms", false);
  report.add("solver.discretize_nodes", mean(discretize_nodes), "count",
             discretize_nodes.size());
  summary("alloc.greedy_us", "alloc.greedy", kUs, "us", false);
  {
    report.add("alloc.greedy_cache_hit_ratio",
               hit_ratio(cache_tally.greedy_hits, cache_tally.greedy_misses),
               "share", cache_tally.greedy_hits + cache_tally.greedy_misses);
  }
  summary("alloc.gpa_ms", "alloc.gpa", kMs, "ms", false);
  summary("alloc.stages_ms", "alloc.stages", kMs, "ms", false);
  {
    const Summary sm = summarize(tracer.self_times("alloc.stages", kUs));
    report.add("alloc.stages_self_us_p50", sm.p50, "us", sm.n);
  }
  summary("solver.exact_ms", "solver.exact", kMs, "ms", false);
  report.add("solver.exact_nodes", mean(exact.nodes), "count",
             exact.nodes.size());
  double exact_nodes_total = 0.0;
  for (double n : exact.nodes) exact_nodes_total += n;
  report.add("solver.exact_nodes_per_s",
             exact.node_seconds > 0.0 ? exact_nodes_total / exact.node_seconds
                                      : 0.0,
             "1/s", exact.nodes.size());
  report.add("solver.exact_proved_share", share(exact.proved, exact.runs),
             "share", exact.runs);

  // ---- Tracing overhead: the same router replay with and without spans.
  const Summary u = summarize(untraced_ms);
  const Summary t = summarize(traced_ms);
  report.add("bench.span_cost_ns", span_cost_ns(), "ns", 20000);
  report.add("bench.untraced_router_ms_p50", u.p50, "ms", u.n);
  report.add("bench.traced_router_ms_p50", t.p50, "ms", t.n);
  report.add("bench.trace_overhead_ms_p50", t.p50 - u.p50, "ms", t.n);
  report.add("bench.untraced_events_per_s",
             untraced_wall > 0 ? router_events / untraced_wall : 0.0, "1/s",
             router_events);
  report.add("bench.traced_events_per_s",
             traced_wall > 0 ? router_events / traced_wall : 0.0, "1/s",
             router_events);
  report.add("bench.spans", static_cast<double>(tracer.spans().size()),
             "count", 1);
  report.add("bench.host_steal_share", steal_share(ticks0, cpu_ticks()),
             "share", 1);
  report.note("workload " + spec.name + " (traced, serving probes on " +
              serving.name + "), seed " + std::to_string(ctx.seed) + ": " +
              std::to_string(rounds) + " probe rounds");
  report.note("outcome log digest " + digest + " (HTTP == in-process router)");
  if (!ctx.spans_out.empty()) {
    if (mfa::Status st = tracer.write_tsv(ctx.spans_out); !st.is_ok()) {
      std::fprintf(stderr, "warning: %s\n", st.to_string().c_str());
    } else {
      report.note("spans written to " + ctx.spans_out);
    }
  }

  RunResult result;
  result.correct = checks.correct;
  result.attempted = checks.attempted;
  result.failed = checks.failed;
  return result;
}

}  // namespace e2e
