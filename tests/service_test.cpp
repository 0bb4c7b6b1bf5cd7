// Allocation-service coverage: trace generator determinism and JSON
// round-trips, replay-log determinism (the `serve --trace` contract),
// the one-GP+A-lane default, composite deltas and held snapshots,
// event-queue MPMC behavior, WAL group-commit transparency, and the
// event error paths (unknown ids, duplicates, empty pools, malformed
// payloads, which must leave no trace).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "io/serialize.hpp"
#include "scenario/trace.hpp"
#include "service/alloc_server.hpp"
#include "service/composite.hpp"
#include "service/event_queue.hpp"
#include "testutil.hpp"

namespace mfa::service {
namespace {

using scenario::Trace;
using scenario::TraceSpec;

TraceSpec small_spec(int events) {
  TraceSpec spec;
  spec.num_events = events;
  spec.num_fpgas = 3;
  spec.max_live_pipelines = 4;
  spec.max_kernels = 3;
  return spec;
}

/// Replays `trace` through a fresh server, returning every outcome.
std::vector<EventOutcome> replay(const Trace& trace,
                                 const ServerOptions& options) {
  AllocServer server(trace.platform, options);
  std::vector<EventOutcome> outcomes;
  outcomes.reserve(trace.events.size());
  for (const Event& event : trace.events) {
    outcomes.push_back(server.apply(event));
  }
  return outcomes;
}

/// Equality over the deterministic outcome fields (everything the CLI
/// writes to the replay log; wall-clock seconds excluded).
void expect_deterministic_eq(const std::vector<EventOutcome>& a,
                             const std::vector<EventOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].sequence, b[i].sequence);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].status.code(), b[i].status.code());
    EXPECT_EQ(a[i].status.message(), b[i].status.message());
    EXPECT_EQ(a[i].solve_status.code(), b[i].solve_status.code());
    EXPECT_EQ(a[i].active_pipelines, b[i].active_pipelines);
    EXPECT_EQ(a[i].solve.ii, b[i].solve.ii);  // bit-identical
    EXPECT_EQ(a[i].solve.phi, b[i].solve.phi);
    EXPECT_EQ(a[i].solve.goal, b[i].solve.goal);
    EXPECT_EQ(a[i].solve.totals, b[i].solve.totals);
    EXPECT_EQ(a[i].solve.nodes, b[i].solve.nodes);
    // The delta class depends only on the event stream.
    EXPECT_EQ(a[i].delta, b[i].delta);
    // The migration diff is part of the deterministic replay contract
    // (it is derived from consecutive incumbents, which are).
    EXPECT_EQ(a[i].diff.computed, b[i].diff.computed);
    EXPECT_EQ(a[i].diff.cus_moved, b[i].diff.cus_moved);
    EXPECT_EQ(a[i].diff.pipelines_disturbed, b[i].diff.pipelines_disturbed);
    EXPECT_EQ(a[i].diff.goal_regret, b[i].diff.goal_regret);
    EXPECT_EQ(a[i].diff.stability_applied, b[i].diff.stability_applied);
    EXPECT_EQ(a[i].diff.budget_exceeded, b[i].diff.budget_exceeded);
  }
}

TEST(TraceGenerator, SameSeedSameBytes) {
  const TraceSpec spec = small_spec(80);
  const Trace a = scenario::generate_trace(spec, 11);
  const Trace b = scenario::generate_trace(spec, 11);
  EXPECT_EQ(io::to_json(a).dump(), io::to_json(b).dump());
  const Trace c = scenario::generate_trace(spec, 12);
  EXPECT_NE(io::to_json(a).dump(), io::to_json(c).dump());
}

TEST(TraceGenerator, ProducesRequestedEventMixAndValidLifecycle) {
  const Trace trace = scenario::generate_trace(small_spec(200), 3);
  ASSERT_EQ(trace.events.size(), 200u);
  int adds = 0;
  int removes = 0;
  std::vector<std::string> live;
  double last_time = 0.0;
  for (const Event& e : trace.events) {
    EXPECT_GE(e.time_ms, last_time);  // non-decreasing timestamps
    last_time = e.time_ms;
    switch (e.type) {
      case Event::Type::kAddPipeline: {
        ++adds;
        EXPECT_FALSE(e.pipeline.app.kernels.empty());
        EXPECT_GT(e.pipeline.weight, 0.0);
        // Arrivals are unique and not yet live.
        for (const std::string& id : live) {
          EXPECT_NE(id, e.pipeline.id);
        }
        live.push_back(e.pipeline.id);
        break;
      }
      case Event::Type::kRemovePipeline: {
        ++removes;
        // Every removal targets a live pipeline.
        auto it = std::find(live.begin(), live.end(), e.id);
        ASSERT_NE(it, live.end()) << "removal of dead id " << e.id;
        live.erase(it);
        break;
      }
      case Event::Type::kReprioritize: {
        auto it = std::find(live.begin(), live.end(), e.id);
        EXPECT_NE(it, live.end()) << "reprioritize of dead id " << e.id;
        EXPECT_GT(e.weight, 0.0);
        break;
      }
      case Event::Type::kResizePlatform:
        EXPECT_GE(e.platform.num_fpgas, 1);
        break;
    }
  }
  EXPECT_GT(adds, 0);
  EXPECT_GT(removes, 0);
}

TEST(TraceGenerator, JsonRoundTripIsLossless) {
  const Trace trace = scenario::generate_trace(small_spec(60), 5);
  const std::string text = io::to_json(trace).dump(2);
  auto parsed = io::trace_from_text(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(io::to_json(parsed.value()).dump(2), text);
}

TEST(AllocServer, ReplayLogIsDeterministic) {
  const Trace trace = scenario::generate_trace(small_spec(120), 17);
  const ServerOptions options;
  const auto a = replay(trace, options);
  const auto b = replay(trace, options);
  expect_deterministic_eq(a, b);
}

TEST(AllocServer, DefaultPortfolioIsOneGpaLane) {
  const auto names = [](const runtime::PortfolioOptions& portfolio) {
    std::vector<std::string> out;
    for (const runtime::StrategySpec& lane : portfolio.lanes()) {
      out.push_back(lane.name());
    }
    return out;
  };
  ServerOptions options;
  EXPECT_EQ(names(options.portfolio),
            (std::vector<std::string>{"gpa(T=0.00)"}));
  options.portfolio.run_exact = true;  // `serve --exact`
  EXPECT_EQ(names(options.portfolio),
            (std::vector<std::string>{"gpa(T=0.00)", "exact"}));
}

TEST(AllocServer, ExtraGpaLanesRepeatLaneZero) {
  // Every composite has resource fraction 1.0, so Algorithm 1's cap
  // min(1.0 + T, 1.0) ignores T: lanes at T = 0.05 and 0.10 repeat lane
  // 0's placement, tie it and lose the tie. The portfolio runs the GP+A
  // stages once for all three lanes and counts their B&B nodes once, so
  // the extra lanes leave no trace in an outcome at all.
  const ServerOptions one_lane;
  ServerOptions three_lanes;
  three_lanes.portfolio.gpa_t_max = {0.0, 0.05, 0.10};
  int resizes = 0;
  std::int64_t nodes = 0;
  for (const std::uint64_t seed : {17u, 41u, 67u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Trace trace = scenario::generate_trace(small_spec(120), seed);
    const auto a = replay(trace, one_lane);
    const auto b = replay(trace, three_lanes);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      SCOPED_TRACE("event " + std::to_string(i));
      if (a[i].type == Event::Type::kResizePlatform) ++resizes;
      nodes += a[i].solve.nodes;
      EXPECT_EQ(io::to_json(a[i]).dump(), io::to_json(b[i]).dump());
    }
  }
  EXPECT_GT(resizes, 0);  // the traces exercise a pool change
  EXPECT_GT(nodes, 0);
}

TEST(AllocServer, StabilityOffMatchesGenerousBudgets) {
  // The stability ladder must be a no-op unless a budget actually
  // binds: a replay under absurdly generous budgets serializes to the
  // very same bytes as the stability-off replay (the bench gate's
  // --check property, asserted per event here).
  const Trace trace = scenario::generate_trace(small_spec(120), 17);
  const ServerOptions off;
  ServerOptions generous;
  generous.max_moves = 1 << 29;
  generous.max_disturbed = 1 << 29;
  const auto a = replay(trace, off);
  const auto b = replay(trace, generous);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(io::to_json(a[i]).dump(), io::to_json(b[i]).dump());
  }
}

TEST(AllocServer, StabilityBudgetsBoundDisturbance) {
  // The hard contract: with max_disturbed = k, no accepted event
  // disturbs more than k surviving pipelines unless the outcome says so
  // (budget_exceeded marks the ladder falling through to rung 3).
  const Trace trace = scenario::generate_trace(small_spec(120), 17);
  ServerOptions options;
  options.max_disturbed = 0;
  const auto outcomes = replay(trace, options);
  bool any_diff = false;
  bool any_constrained = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    const EventOutcome& o = outcomes[i];
    if (!o.diff.computed) continue;
    any_diff = true;
    any_constrained = any_constrained ||
                      o.diff.stability_applied || o.diff.budget_exceeded;
    if (!o.diff.budget_exceeded) {
      EXPECT_EQ(o.diff.pipelines_disturbed, 0);
    }
  }
  EXPECT_TRUE(any_diff);
  // The trace churns enough that a zero budget must actually bind
  // somewhere — otherwise this test is vacuous.
  EXPECT_TRUE(any_constrained);
}

TEST(AllocServer, StabilityReplayIsDeterministic) {
  // Budgeted replays (including the soft move-cost objective) stay on
  // the deterministic-log contract.
  const Trace trace = scenario::generate_trace(small_spec(120), 17);
  ServerOptions options;
  options.max_moves = 3;
  options.max_disturbed = 1;
  options.move_cost = 0.05;
  const auto a = replay(trace, options);
  expect_deterministic_eq(a, replay(trace, options));
}

TEST(AllocServer, OccupancyTracksTheIncumbent) {
  core::Platform platform{"pool", 2};
  AllocServer server(platform, ServerOptions{});
  EXPECT_FALSE(server.occupancy().valid());

  PipelineSpec p0;
  p0.id = "p0";
  p0.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0),
                    test::make_kernel("b", 12.0, 8.0, 15.0, 4.0)};
  PipelineSpec p1;
  p1.id = "p1";
  p1.app.kernels = {test::make_kernel("c", 4.0, 5.0, 10.0, 8.0)};
  ASSERT_TRUE(server.apply(Event::add(p0)).solve_status.is_ok());
  ASSERT_TRUE(server.apply(Event::add(p1)).solve_status.is_ok());

  const OccupancyTracker occ = server.occupancy();
  ASSERT_TRUE(occ.valid());
  ASSERT_EQ(occ.placements().size(), 2u);
  const std::optional<runtime::SolveResult> inc = server.incumbent();
  ASSERT_TRUE(inc.has_value());
  const core::Allocation& alloc = *inc->allocation;
  int incumbent_cus = 0;
  for (std::size_t k = 0; k < alloc.num_kernels(); ++k) {
    incumbent_cus += alloc.total_cu(k);
  }
  int placed_cus = 0;
  for (const PipelinePlacement& p : occ.placements()) {
    placed_cus += p.total_cus();
  }
  EXPECT_EQ(placed_cus, incumbent_cus);
  int device_cus = 0;
  for (const DeviceOccupancy& dev : occ.devices()) device_cus += dev.cus;
  EXPECT_EQ(device_cus, incumbent_cus);
  ASSERT_NE(occ.placement("p0"), nullptr);
  EXPECT_EQ(occ.placement("p0")->rows.size(), 2u);  // two kernels
  EXPECT_EQ(occ.placement("ghost"), nullptr);
  EXPECT_EQ(occ.statistics().num_pipelines, 2u);
  EXPECT_EQ(occ.statistics().total_cus, incumbent_cus);

  // Departures drop the record; emptying the pool forgets everything.
  ASSERT_TRUE(server.apply(Event::remove("p0")).status.is_ok());
  const OccupancyTracker after = server.occupancy();
  ASSERT_TRUE(after.valid());
  EXPECT_EQ(after.placement("p0"), nullptr);
  ASSERT_TRUE(server.apply(Event::remove("p1")).status.is_ok());
  EXPECT_FALSE(server.occupancy().valid());
}

/// The PR-4 wholesale composite rebuild, replicated as a test oracle:
/// the incremental CompositeBuilder must stay bit-identical to it.
core::Problem wholesale_compose(const core::Platform& platform,
                                const std::vector<PipelineSpec>& pipes) {
  const CompositeConfig config;  // the server's composite knobs
  core::Problem p;
  p.app.name = "composite";
  p.platform = platform;
  p.resource_fraction = config.resource_fraction;
  p.bw_fraction = config.bw_fraction;
  p.alpha = config.alpha;
  p.beta = config.beta;
  for (const PipelineSpec& pipe : pipes) {
    for (const core::Kernel& k : pipe.app.kernels) {
      core::Kernel scaled = k;
      scaled.name = pipe.id + "/" + k.name;
      scaled.wcet_ms = k.wcet_ms * pipe.weight;
      p.app.kernels.push_back(std::move(scaled));
    }
  }
  return p;
}

TEST(AllocServer, IncrementalCompositeMatchesWholesaleRebuild) {
  // Drive one server through every delta class — including repeated
  // reprioritizations of the same pipeline, which must rescale from the
  // base WCETs, never compound — and after each event compare the
  // composite the solve actually ran on (incumbent()->problem) against
  // a from-scratch rebuild, byte-for-byte via the JSON dump.
  core::Platform platform{"pool", 2};
  AllocServer server(platform, ServerOptions{});

  PipelineSpec p0;
  p0.id = "p0";
  p0.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0),
                    test::make_kernel("b", 12.0, 8.0, 15.0, 4.0)};
  PipelineSpec p1;
  p1.id = "p1";
  p1.weight = 1.5;
  p1.app.kernels = {test::make_kernel("c", 6.0, 5.0, 10.0, 3.0)};

  std::vector<PipelineSpec> live;
  auto expect_composite_matches = [&] {
    ASSERT_TRUE(server.incumbent().has_value());
    const auto expected =
        io::to_json(wholesale_compose(platform, live)).dump(2);
    const auto actual = io::to_json(*server.incumbent()->problem).dump(2);
    EXPECT_EQ(actual, expected);
  };

  ASSERT_TRUE(server.apply(Event::add(p0)).status.is_ok());
  live.push_back(p0);
  expect_composite_matches();

  ASSERT_TRUE(server.apply(Event::add(p1)).status.is_ok());
  live.push_back(p1);
  expect_composite_matches();

  EventOutcome re = server.apply(Event::reprioritize("p0", 2.0));
  ASSERT_TRUE(re.status.is_ok());
  EXPECT_EQ(re.delta, CompositeDelta::kCoefficients);
  live[0].weight = 2.0;
  expect_composite_matches();

  // Second reprioritization: 0.5 must replace 2.0, not stack on it.
  ASSERT_TRUE(server.apply(Event::reprioritize("p0", 0.5)).status.is_ok());
  live[0].weight = 0.5;
  expect_composite_matches();

  EventOutcome grown = server.apply(Event::resize(core::Platform{"pool3", 3}));
  ASSERT_TRUE(grown.status.is_ok());
  EXPECT_EQ(grown.delta, CompositeDelta::kRhs);
  platform = core::Platform{"pool3", 3};
  expect_composite_matches();

  EventOutcome removed = server.apply(Event::remove("p0"));
  ASSERT_TRUE(removed.status.is_ok());
  EXPECT_EQ(removed.delta, CompositeDelta::kStructural);
  live.erase(live.begin());
  expect_composite_matches();
}

TEST(CompositeBuilder, HeldSnapshotKeepsItsBytesAcrossDeltas) {
  // The server's incumbent holds the snapshot its event solved while
  // later events patch the live composite: a held snapshot must keep
  // its exact bytes across reprioritize, resize and add deltas, and
  // every new snapshot must show the delta before it.
  CompositeBuilder builder(core::Platform{"pool", 2}, CompositeConfig{});

  PipelineSpec p0;
  p0.id = "p0";
  p0.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0),
                    test::make_kernel("b", 12.0, 8.0, 15.0, 4.0)};
  builder.add_pipeline(p0);

  const auto pinned = builder.snapshot();
  ASSERT_NE(pinned, nullptr);
  const std::string pinned_bytes = io::to_json(*pinned).dump(2);

  std::string latest = pinned_bytes;
  const auto expect_fresh_snapshot = [&builder, &latest] {
    const std::string fresh = io::to_json(*builder.snapshot()).dump(2);
    EXPECT_NE(fresh, latest) << "a fresh snapshot misses the delta";
    latest = fresh;
  };

  PipelineSpec hot = p0;
  hot.weight = 2.0;
  builder.reprioritize(0, hot);
  expect_fresh_snapshot();
  EXPECT_EQ(io::to_json(*pinned).dump(2), pinned_bytes)
      << "a reprioritize changed a held snapshot";

  builder.resize_platform(core::Platform{"pool3", 3});
  expect_fresh_snapshot();
  EXPECT_EQ(io::to_json(*pinned).dump(2), pinned_bytes)
      << "a resize changed a held snapshot";

  PipelineSpec p1;
  p1.id = "p1";
  p1.app.kernels = {test::make_kernel("c", 6.0, 5.0, 10.0, 3.0)};
  builder.add_pipeline(p1);
  expect_fresh_snapshot();
  EXPECT_EQ(io::to_json(*pinned).dump(2), pinned_bytes)
      << "an add changed a held snapshot";
}

TEST(CompositeBuilder, PatchedBuilderMatchesFreshBuilderByteForByte) {
  // A builder that lived through reprioritize + resize deltas (and
  // deltas back to the old weight and platform) must publish the same
  // bytes as one constructed directly in the final state — the identity
  // that makes a patched composite solve like a fresh one.
  PipelineSpec p0;
  p0.id = "p0";
  p0.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0),
                    test::make_kernel("b", 12.0, 8.0, 15.0, 4.0)};
  PipelineSpec p1;
  p1.id = "p1";
  p1.weight = 1.5;
  p1.app.kernels = {test::make_kernel("c", 6.0, 5.0, 10.0, 3.0)};

  CompositeBuilder veteran(core::Platform{"pool", 2}, CompositeConfig{});
  veteran.add_pipeline(p0);
  veteran.add_pipeline(p1);
  const std::string original = io::to_json(*veteran.snapshot()).dump(2);

  PipelineSpec hot = p0;
  hot.weight = 3.0;
  veteran.reprioritize(0, hot);
  veteran.resize_platform(core::Platform{"pool4", 4});
  // Restoring the old weight and platform must be byte-exact, not
  // merely approximately equal.
  veteran.reprioritize(0, p0);
  veteran.resize_platform(core::Platform{"pool", 2});
  EXPECT_EQ(io::to_json(*veteran.snapshot()).dump(2), original);

  veteran.reprioritize(0, hot);
  veteran.resize_platform(core::Platform{"pool4", 4});

  CompositeBuilder fresh(core::Platform{"pool4", 4}, CompositeConfig{});
  fresh.add_pipeline(hot);
  fresh.add_pipeline(p1);
  EXPECT_EQ(io::to_json(*veteran.snapshot()).dump(2),
            io::to_json(*fresh.snapshot()).dump(2));
}

TEST(AllocServer, WarmAllocCountersAreDeterministic) {
  // Whatever the counting interposer reports (zero when it is not
  // linked into this binary), two identical replays must report it
  // identically per event — the counter is part of the replay-log
  // surface and must not pick up noise from the environment.
  const Trace trace = scenario::generate_trace(small_spec(80), 91);
  const ServerOptions options;
  const auto a = replay(trace, options);
  const auto b = replay(trace, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].warm_allocs, b[i].warm_allocs);
  }
}

TEST(AllocServer, NumericDeltasPatchInsteadOfRecompiling) {
  // Events that only move numbers (reprioritize, resize) patch the live
  // composite in place — coefficients or platform RHS — instead of
  // re-splicing its kernel set; add/remove are structural edits, and a
  // failed event reaches no delta at all.
  const Trace trace = scenario::generate_trace(small_spec(100), 67);
  const ServerOptions options;
  const auto outcomes = replay(trace, options);

  bool any_reprioritize = false;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    const EventOutcome& o = outcomes[i];
    if (!o.status.is_ok()) {
      EXPECT_EQ(o.delta, CompositeDelta::kNone);
      continue;
    }
    switch (o.type) {
      case Event::Type::kAddPipeline:
      case Event::Type::kRemovePipeline:
        EXPECT_EQ(o.delta, CompositeDelta::kStructural);
        break;
      case Event::Type::kReprioritize:
        any_reprioritize = true;
        EXPECT_EQ(o.delta, CompositeDelta::kCoefficients);
        break;
      case Event::Type::kResizePlatform:
        EXPECT_EQ(o.delta, CompositeDelta::kRhs);
        break;
    }
  }
  EXPECT_TRUE(any_reprioritize);

  // The delta class is part of the deterministic replay contract.
  const auto again = replay(trace, options);
  ASSERT_EQ(again.size(), outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(outcomes[i].delta, again[i].delta);
  }
}

TEST(AllocServer, RemoveUnknownIdFailsCleanly) {
  core::Platform platform{"pool", 2};
  AllocServer server(platform, ServerOptions{});

  EventOutcome outcome = server.apply(Event::remove("ghost"));
  EXPECT_EQ(outcome.status.code(), Code::kInvalid);
  EXPECT_NE(outcome.status.message().find("ghost"), std::string::npos);
  EXPECT_EQ(outcome.active_pipelines, 0u);

  // The server keeps serving: a real add still works afterwards.
  PipelineSpec pipe;
  pipe.id = "p0";
  pipe.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0)};
  outcome = server.apply(Event::add(pipe));
  EXPECT_TRUE(outcome.status.is_ok());
  EXPECT_TRUE(outcome.solve_status.is_ok());
  EXPECT_EQ(outcome.active_pipelines, 1u);
  EXPECT_GT(outcome.solve.goal, 0.0);

  // Unknown reprioritize targets fail the same way.
  outcome = server.apply(Event::reprioritize("ghost", 2.0));
  EXPECT_EQ(outcome.status.code(), Code::kInvalid);
  // Duplicate arrivals are rejected without disturbing the incumbent.
  outcome = server.apply(Event::add(pipe));
  EXPECT_EQ(outcome.status.code(), Code::kInvalid);
  EXPECT_EQ(outcome.active_pipelines, 1u);
}

/// A platform whose class assignment leaves an FPGA without a class:
/// it passes the shallow num_fpgas >= 1 check but not Platform::validate.
core::Platform broken_platform() {
  core::Platform broken{"broken", 2};
  broken.classes.push_back(core::DeviceClass{
      "c0", core::ResourceVec::uniform(100.0), 100.0});
  broken.class_of = {0};  // one entry for two FPGAs
  return broken;
}

TEST(AllocServer, MalformedEventFailsAndNeverPoisonsTheServer) {
  core::Platform platform{"pool", 2};
  AllocServer server(platform, ServerOptions{});

  // A malformed resize on an *empty* pool must be rejected outright,
  // not silently installed.
  EventOutcome rejected = server.apply(Event::resize(broken_platform()));
  EXPECT_EQ(rejected.status.code(), Code::kInvalid);

  PipelineSpec pipe;
  pipe.id = "p0";
  pipe.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0)};
  EventOutcome ok = server.apply(Event::add(pipe));
  ASSERT_TRUE(ok.status.is_ok());
  ASSERT_TRUE(ok.solve_status.is_ok());
  const double goal_before = ok.solve.goal;

  // The same resize on a live pool fails the same way and must NOT
  // leave the broken platform behind.
  EventOutcome bad = server.apply(Event::resize(broken_platform()));
  EXPECT_EQ(bad.status.code(), Code::kInvalid);
  EXPECT_EQ(bad.solve.goal, goal_before);  // incumbent untouched

  // An add whose kernel carries negative resource demand fails without
  // growing the live set.
  PipelineSpec negative;
  negative.id = "neg";
  negative.app.kernels = {test::make_kernel("n", 5.0, -1.0, 10.0, 2.0)};
  bad = server.apply(Event::add(negative));
  EXPECT_EQ(bad.status.code(), Code::kInvalid);
  EXPECT_EQ(bad.status.message(),
            "kernel 'neg/n' has negative resource demand");
  EXPECT_EQ(bad.active_pipelines, 1u);

  // A weight that overflows the scaled WCET fails the reprioritize,
  // and neither the weight nor the goal moves.
  bad = server.apply(Event::reprioritize("p0", 1e308));
  EXPECT_EQ(bad.status.code(), Code::kInvalid);
  EXPECT_EQ(bad.status.message(),
            "kernel 'p0/a' must have a positive finite WCET");
  EXPECT_EQ(bad.delta, CompositeDelta::kNone);
  EXPECT_EQ(bad.solve.goal, goal_before);

  // The server still serves: a well-formed event after the malformed
  // ones solves on the *original* platform, with p0 at its old weight.
  PipelineSpec pipe2;
  pipe2.id = "p1";
  pipe2.app.kernels = {test::make_kernel("b", 6.0, 8.0, 12.0, 3.0)};
  EventOutcome after = server.apply(Event::add(pipe2));
  EXPECT_TRUE(after.status.is_ok());
  EXPECT_TRUE(after.solve_status.is_ok());
  EXPECT_EQ(after.active_pipelines, 2u);
  const std::optional<runtime::SolveResult> incumbent = server.incumbent();
  ASSERT_TRUE(incumbent.has_value());
  EXPECT_EQ(incumbent->problem->platform.name, "pool");
  EXPECT_EQ(incumbent->problem->app.kernels[0].wcet_ms, 8.0);

  // A tenant that cannot place a CU is a legal workload state (the
  // solve reports it infeasible), and it must not hide a malformed add
  // behind it: checking the whole composite would stop at the first
  // kernel's kInfeasible and admit the negative demand, after which
  // every remove and resize would find the composite invalid and fail.
  AllocServer pool(core::Platform{"pool", 2}, ServerOptions{});
  PipelineSpec huge;
  huge.id = "huge";
  huge.app.kernels = {test::make_kernel("h", 10.0, 150.0, 10.0, 5.0)};
  EventOutcome outcome = pool.apply(Event::add(huge));
  EXPECT_TRUE(outcome.status.is_ok());
  EXPECT_EQ(outcome.solve_status.code(), Code::kInfeasible);

  outcome = pool.apply(Event::add(negative));
  EXPECT_EQ(outcome.status.code(), Code::kInvalid);
  EXPECT_EQ(outcome.active_pipelines, 1u);

  outcome = pool.apply(Event::remove("huge"));
  EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_string();
  EXPECT_EQ(outcome.active_pipelines, 0u);

  core::Platform roomy{"roomy", 2};
  roomy.capacity = core::ResourceVec::uniform(200.0);
  outcome = pool.apply(Event::resize(roomy));
  EXPECT_TRUE(outcome.status.is_ok()) << outcome.status.to_string();
  outcome = pool.apply(Event::add(huge));
  EXPECT_TRUE(outcome.status.is_ok());
  EXPECT_TRUE(outcome.solve_status.is_ok())
      << outcome.solve_status.to_string();

  // A platform enters the server valid: open() reports a bad one.
  core::Platform negative_pool{"negative", 2};
  negative_pool.capacity[core::Resource::kBram] = -1.0;
  auto opened = AllocServer::open(negative_pool, ServerOptions{});
  ASSERT_FALSE(opened.is_ok());
  EXPECT_EQ(opened.status().code(), Code::kInvalid);
  EXPECT_EQ(opened.status().message(),
            "platform capacities must be non-negative");
}

/// An outcome's replay-log line (io::to_json: every deterministic
/// field) without its sequence number.
std::string log_line_without_seq(EventOutcome outcome) {
  outcome.sequence = 0;
  return io::to_json(outcome).dump();
}

TEST(AllocServer, RejectedEventsLeaveNoTrace) {
  // Property: a malformed event fails with kInvalid and changes
  // nothing. Each trace gets a valid tenant that cannot place a CU
  // (live for a stretch, so the composite is infeasible there), and
  // the hostile copy interleaves malformed events throughout; every
  // other outcome must equal the clean trace's, seq aside.
  PipelineSpec unplaceable;
  unplaceable.id = "unplaceable";
  unplaceable.app.kernels = {test::make_kernel("u", 10.0, 150.0, 10.0, 5.0)};
  PipelineSpec negative;
  negative.id = "negative";
  negative.app.kernels = {test::make_kernel("n", 5.0, 10.0, -1.0, 2.0)};

  for (const std::uint64_t seed : {5u, 23u, 71u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Trace base = scenario::generate_trace(small_spec(60), seed);
    std::vector<Event> clean;
    std::vector<Event> hostile;
    std::vector<bool> malformed;  // parallel to hostile
    std::vector<PipelineSpec> live;
    const auto push = [&](const Event& event) {
      clean.push_back(event);
      hostile.push_back(event);
      malformed.push_back(false);
      if (event.type == Event::Type::kAddPipeline) {
        live.push_back(event.pipeline);
      } else if (event.type == Event::Type::kRemovePipeline) {
        const auto gone = [&event](const PipelineSpec& p) {
          return p.id == event.id;
        };
        live.erase(std::find_if(live.begin(), live.end(), gone));
      }
    };
    const auto inject = [&](std::size_t kind) {
      Event event = Event::add(negative);
      if (kind == 1 && !live.empty()) {
        event = Event::reprioritize(live.back().id, std::nan(""));
      } else if (kind == 2 && !live.empty()) {
        event = Event::reprioritize(live.front().id, 1e308);
      } else if (kind == 3) {
        event = Event::resize(broken_platform());
      } else if (kind == 4 && !live.empty()) {
        event = Event::add(live.front());  // duplicate id
      }
      hostile.push_back(std::move(event));
      malformed.push_back(true);
    };
    for (std::size_t i = 0; i < base.events.size(); ++i) {
      if (i == 10) push(Event::add(unplaceable));
      if (i == 40) push(Event::remove(unplaceable.id));
      push(base.events[i]);
      inject(i % 5);
    }

    AllocServer clean_server(base.platform, ServerOptions{});
    AllocServer hostile_server(base.platform, ServerOptions{});
    std::size_t next_clean = 0;
    for (std::size_t i = 0; i < hostile.size(); ++i) {
      SCOPED_TRACE("hostile event " + std::to_string(i));
      const EventOutcome got = hostile_server.apply(hostile[i]);
      if (malformed[i]) {
        EXPECT_EQ(got.status.code(), Code::kInvalid) << got.status.to_string();
        EXPECT_EQ(got.delta, CompositeDelta::kNone);
        continue;
      }
      const EventOutcome want = clean_server.apply(clean[next_clean++]);
      EXPECT_EQ(log_line_without_seq(got), log_line_without_seq(want));
    }
    EXPECT_EQ(next_clean, clean.size());
  }
}

TEST(AllocServer, LogRetentionIsBounded) {
  const Trace trace = scenario::generate_trace(small_spec(40), 53);
  ServerOptions options;
  options.log_capacity = 8;
  AllocServer server(trace.platform, options);
  for (const Event& event : trace.events) server.apply(event);

  // Only the newest log_capacity outcomes survive, in sequence order.
  const std::vector<EventOutcome> log = server.log();
  ASSERT_EQ(log.size(), 8u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].sequence, 40u - 8u + i);
  }
}

TEST(AllocServer, LifecycleAndIncumbentTracking) {
  core::Platform platform{"pool", 2};
  AllocServer server(platform, ServerOptions{});
  EXPECT_FALSE(server.incumbent().has_value());

  PipelineSpec heavy;
  heavy.id = "heavy";
  heavy.app.kernels = {test::make_kernel("a", 16.0, 10.0, 20.0, 5.0),
                       test::make_kernel("b", 8.0, 8.0, 15.0, 4.0)};
  const EventOutcome added = server.apply(Event::add(heavy));
  ASSERT_TRUE(added.solve_status.is_ok());
  ASSERT_TRUE(server.incumbent().has_value());
  EXPECT_EQ(server.active_pipelines(), 1u);

  // Raising a pipeline's weight re-solves to a different (worse-goal)
  // composite: weight scales effective WCET.
  const EventOutcome heavier =
      server.apply(Event::reprioritize("heavy", 2.0));
  ASSERT_TRUE(heavier.solve_status.is_ok());
  EXPECT_GT(heavier.solve.goal, added.solve.goal);

  // Growing the pool can only help the goal.
  const EventOutcome grown =
      server.apply(Event::resize(core::Platform{"pool4", 4}));
  ASSERT_TRUE(grown.solve_status.is_ok());
  EXPECT_LE(grown.solve.goal, heavier.solve.goal + 1e-12);

  // Removing the last pipeline clears the incumbent.
  const EventOutcome removed = server.apply(Event::remove("heavy"));
  EXPECT_TRUE(removed.status.is_ok());
  EXPECT_EQ(removed.active_pipelines, 0u);
  EXPECT_FALSE(server.incumbent().has_value());
  EXPECT_EQ(removed.solve.goal, 0.0);
}

TEST(AllocServer, MpmcSubmissionProcessesEveryEventExactlyOnce) {
  core::Platform platform{"pool", 2};
  AllocServer server(platform, ServerOptions{});
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 8;

  std::vector<std::thread> producers;
  std::atomic<int> ok_adds{0};
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&server, &ok_adds, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        PipelineSpec pipe;
        pipe.id = "p" + std::to_string(t) + "_" + std::to_string(i);
        pipe.app.kernels = {test::make_kernel("k", 4.0 + t, 8.0, 12.0, 2.0)};
        const EventOutcome outcome =
            server.apply(Event::add(std::move(pipe)));
        if (outcome.status.is_ok()) ok_adds.fetch_add(1);
      }
    });
  }
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(ok_adds.load(), kProducers * kPerProducer);
  EXPECT_EQ(server.active_pipelines(),
            static_cast<std::size_t>(kProducers * kPerProducer));
  // Sequences are unique and dense: every event was processed once.
  const std::vector<EventOutcome> log = server.log();
  ASSERT_EQ(log.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  std::vector<bool> seen(log.size(), false);
  for (const EventOutcome& o : log) {
    ASSERT_LT(o.sequence, log.size());
    EXPECT_FALSE(seen[o.sequence]);
    seen[o.sequence] = true;
  }
}

TEST(EventQueue, ClosedQueueFailsFastAndDrains) {
  EventQueue queue;
  std::vector<std::future<EventOutcome>> futures;
  for (const char* id : {"a", "b", "c"}) {
    futures.push_back(queue.push(Event::remove(id)));
  }
  // One call takes every queued item, in FIFO order.
  std::deque<EventQueue::Item> items = queue.pop_all();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].event.id, "a");
  EXPECT_EQ(items[1].event.id, "b");
  EXPECT_EQ(items[2].event.id, "c");
  for (EventQueue::Item& item : items) item.reply.set_value(EventOutcome{});
  for (auto& f : futures) f.get();

  auto f1 = queue.push(Event::remove("d"));
  queue.close();
  // Still-queued items drain…
  items = queue.pop_all();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].event.id, "d");
  items[0].reply.set_value(EventOutcome{});
  f1.get();
  // …then pop_all reports closed with an empty result, and new pushes
  // fail fast.
  EXPECT_TRUE(queue.pop_all().empty());
  auto f2 = queue.push(Event::remove("e"));
  EXPECT_EQ(f2.get().status.code(), Code::kInvalid);
}

TEST(AllocServer, GroupCommitIsTransparent) {
  // The same trace through two WAL-enabled servers: submit() in a tight
  // loop, so the dispatcher commits many queued events per fsync, and
  // apply(), so every commit holds one event. Grouping may change the
  // number of fsyncs and nothing else.
  const Trace trace = scenario::generate_trace(small_spec(200), 20190702);
  ServerOptions options;
  options.log_capacity = 0;
  options.snapshot_every = 7;  // snapshots land inside groups
  struct Run {
    std::vector<std::string> outcomes;  // io::to_json drops `seconds`
    ServiceStats stats;
    std::string wal;
    std::string snapshot;
  };
  const auto bytes = [](const std::string& path) {
    StatusOr<std::string> text = io::read_file(path);
    return text.is_ok() ? text.value() : text.status().to_string();
  };
  const auto run = [&](const std::string& tag, bool grouped) {
    const test::TempDir dir(tag);
    ServerOptions durable = options;
    durable.wal_dir = dir.path;
    auto server = AllocServer::open(trace.platform, durable);
    EXPECT_TRUE(server.is_ok()) << server.status().to_string();
    Run out;
    if (!server.is_ok()) return out;
    if (grouped) {
      std::vector<std::future<EventOutcome>> futures;
      for (const Event& event : trace.events) {
        futures.push_back(server.value()->submit(event));
      }
      for (auto& f : futures) f.get();
    } else {
      for (const Event& event : trace.events) server.value()->apply(event);
    }
    server.value()->stop();
    for (const EventOutcome& outcome : server.value()->log()) {
      out.outcomes.push_back(io::to_json(outcome).dump());
    }
    out.stats = server.value()->stats();
    out.wal = bytes(dir.path + "/wal.log");
    out.snapshot = bytes(dir.path + "/snapshot.json");
    return out;
  };
  const Run grouped = run("grouped", true);
  const Run single = run("single", false);

  ASSERT_EQ(single.outcomes.size(), trace.events.size());
  EXPECT_EQ(grouped.outcomes, single.outcomes);
  EXPECT_EQ(grouped.wal, single.wal);
  EXPECT_EQ(grouped.snapshot, single.snapshot);
  EXPECT_GT(single.stats.snapshots, 0u);
  EXPECT_EQ(grouped.stats.snapshots, single.stats.snapshots);
  EXPECT_EQ(single.stats.wal_commits, trace.events.size());
  EXPECT_LT(grouped.stats.wal_commits, trace.events.size());
  EXPECT_EQ(grouped.stats.wal_errors, 0u);
}

TEST(AllocServer, StopDrainsQueuedEvents) {
  core::Platform platform{"pool", 2};
  auto server = std::make_unique<AllocServer>(platform, ServerOptions{});
  std::vector<std::future<EventOutcome>> futures;
  for (int i = 0; i < 16; ++i) {
    PipelineSpec pipe;
    pipe.id = "p" + std::to_string(i);
    pipe.app.kernels = {test::make_kernel("k", 6.0, 9.0, 14.0, 3.0)};
    futures.push_back(server->submit(Event::add(std::move(pipe))));
  }
  server->stop();  // must process everything already submitted
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().status.is_ok());
  }
}

}  // namespace
}  // namespace mfa::service
