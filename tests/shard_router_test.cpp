// ShardRouter coverage: the pinned hash and partition (stability is a
// wire/WAL contract), balanced and deterministic routing, per-shard
// equivalence with standalone servers, resize broadcast, merged WAL
// counters, WAL recovery of a sharded deployment, including the layout
// record that guards it, and the typed refusal of a bad pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "scenario/trace.hpp"
#include "service/alloc_server.hpp"
#include "service/shard_router.hpp"
#include "testutil.hpp"

namespace mfa::service {
namespace {

namespace fs = std::filesystem;

using test::TempDir;

scenario::Trace small_trace(int events, std::uint64_t seed = 71) {
  scenario::TraceSpec spec;
  spec.num_events = events;
  spec.num_fpgas = 3;
  spec.max_live_pipelines = 4;
  spec.max_kernels = 3;
  return scenario::generate_trace(spec, seed);
}

std::string incumbent_json(const AllocServer& server) {
  const std::optional<runtime::SolveResult> inc = server.incumbent();
  if (!inc.has_value() || !inc->allocation.has_value()) return "";
  return io::to_json(*inc->allocation).dump() + "|" + inc->winner;
}

/// A server's retained outcomes, each without its wall-clock `seconds`
/// (io::to_json drops it) — every other field, counters included.
std::vector<std::string> outcome_log(const AllocServer& server) {
  std::vector<std::string> out;
  for (const EventOutcome& o : server.log()) {
    out.push_back(io::to_json(o).dump());
  }
  return out;
}

TEST(ShardRouter, StableHashIsPinnedFnv1a64) {
  // Reference FNV-1a 64 vectors. These values are load-bearing: they
  // decide which shard (and which on-disk WAL) owns a pipeline, so a
  // hash change is a breaking format change, not a refactor.
  EXPECT_EQ(stable_hash(""), 14695981039346656037ull);
  EXPECT_EQ(stable_hash("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(stable_hash("foobar"), 0x85944171f73967e8ull);
}

std::unique_ptr<ShardRouter> open_router(std::size_t shards) {
  RouterOptions options;
  options.shards = shards;
  auto router = ShardRouter::open(small_trace(1).platform, options);
  EXPECT_TRUE(router.is_ok()) << router.status().to_string();
  return std::move(router.value());
}

TEST(ShardRouter, ShardOfIsPinnedJumpFnv1a64) {
  // Jump hash over stable_hash: these assignments decide which shard's
  // WAL owns a pipeline, and the layout record names them
  // "jump-fnv1a64". Changing any of them needs a new partition name, so
  // that recover() refuses roots written under the old one.
  const std::unique_ptr<ShardRouter> two = open_router(2);
  const std::unique_ptr<ShardRouter> four = open_router(4);
  EXPECT_EQ(two->shard_of("p0"), 1u);
  EXPECT_EQ(two->shard_of("p1"), 0u);
  EXPECT_EQ(two->shard_of("p2"), 0u);
  EXPECT_EQ(two->shard_of("p10"), 0u);
  EXPECT_EQ(two->shard_of("p11"), 1u);
  EXPECT_EQ(two->shard_of("foobar"), 1u);
  EXPECT_EQ(two->shard_of("pipeline-7"), 0u);
  EXPECT_EQ(four->shard_of("p0"), 2u);
  EXPECT_EQ(four->shard_of("p1"), 2u);
  EXPECT_EQ(four->shard_of("p2"), 3u);
  EXPECT_EQ(four->shard_of("p10"), 3u);
  EXPECT_EQ(four->shard_of("p11"), 3u);
  EXPECT_EQ(four->shard_of("foobar"), 1u);
  EXPECT_EQ(four->shard_of("pipeline-7"), 2u);
}

TEST(ShardRouter, RoutingIsDeterministicAcrossInstances) {
  const std::unique_ptr<ShardRouter> a = open_router(4);
  const std::unique_ptr<ShardRouter> b = open_router(4);
  for (int i = 0; i < 64; ++i) {
    const std::string id = "pipeline-" + std::to_string(i);
    const std::size_t shard = a->shard_of(id);
    EXPECT_LT(shard, 4u);
    EXPECT_EQ(shard, b->shard_of(id));
  }
}

TEST(ShardRouter, PartitionIsBalanced) {
  // Ids that differ only in their last characters (the trace
  // generator's p<i>, and two other common forms) must spread evenly:
  // every shard gets within 20% of its even share at 2, 4 and 8 shards.
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const std::unique_ptr<ShardRouter> router = open_router(shards);
    for (const std::string prefix : {"p", "pipeline-", "tenant-"}) {
      SCOPED_TRACE(prefix + "<i> over " + std::to_string(shards) + " shards");
      constexpr int kIds = 1000;
      std::vector<int> load(shards, 0);
      for (int i = 0; i < kIds; ++i) {
        ++load[router->shard_of(prefix + std::to_string(i))];
      }
      const double even = static_cast<double>(kIds) / shards;
      for (std::size_t s = 0; s < shards; ++s) {
        EXPECT_GE(load[s], 0.8 * even) << "shard " << s;
        EXPECT_LE(load[s], 1.2 * even) << "shard " << s;
      }
    }
  }
}

TEST(ShardRouter, MatchesStandaloneServersPerShard) {
  // Shards share nothing, so each shard's full outcome log — every field
  // but wall-clock seconds — must equal that of a standalone server fed
  // the same events, at any shard count and with broadcast resizes in
  // the mix.
  scenario::TraceSpec spec;
  spec.num_events = 40;
  spec.num_fpgas = 3;
  spec.max_live_pipelines = 4;
  spec.max_kernels = 3;
  spec.resize_fraction = 0.15;
  const scenario::Trace trace = scenario::generate_trace(spec, 71);
  ASSERT_GT(std::count_if(trace.events.begin(), trace.events.end(),
                          [](const Event& e) {
                            return e.type == Event::Type::kResizePlatform;
                          }),
            0);

  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    RouterOptions options;
    options.shards = shards;
    auto router = ShardRouter::open(trace.platform, options);
    ASSERT_TRUE(router.is_ok());

    // Partition the trace exactly the way the router will: per-pipeline
    // events by shard_of, resizes to every shard.
    std::map<std::size_t, std::vector<Event>> partitions;
    for (const Event& event : trace.events) {
      if (event.type == Event::Type::kResizePlatform) {
        for (std::size_t s = 0; s < shards; ++s) {
          partitions[s].push_back(event);
        }
        continue;
      }
      const std::string& id = event.type == Event::Type::kAddPipeline
                                  ? event.pipeline.id
                                  : event.id;
      partitions[router.value()->shard_of(id)].push_back(event);
    }

    for (const Event& event : trace.events) router.value()->apply(event);

    for (std::size_t s = 0; s < shards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      AllocServer standalone(trace.platform, options.server);
      for (const Event& event : partitions[s]) standalone.apply(event);
      standalone.stop();
      EXPECT_EQ(outcome_log(router.value()->shard(s)),
                outcome_log(standalone));
      EXPECT_EQ(incumbent_json(router.value()->shard(s)),
                incumbent_json(standalone));
      EXPECT_EQ(router.value()->shard(s).active_pipelines(),
                standalone.active_pipelines());
    }
  }
}

TEST(ShardRouter, ResizeBroadcastsToEveryShard) {
  const scenario::Trace trace = small_trace(1);
  RouterOptions options;
  options.shards = 3;
  auto router = ShardRouter::open(trace.platform, options);
  ASSERT_TRUE(router.is_ok());

  core::Platform bigger = trace.platform;
  bigger.num_fpgas += 2;
  const EventOutcome merged = router.value()->apply(Event::resize(bigger));
  EXPECT_TRUE(merged.status.is_ok()) << merged.status.to_string();

  // Every shard consumed exactly one event and counted the broadcast.
  for (const ServiceStats& s : router.value()->shard_stats()) {
    EXPECT_EQ(s.sequence, 1u);
    EXPECT_EQ(s.resizes, 1u);
  }
  EXPECT_EQ(router.value()->stats().sequence, 3u);
  EXPECT_EQ(router.value()->stats().resizes, 3u);
}

TEST(ShardRouter, RecoversEveryShardFromWalRoot) {
  const TempDir dir("recover");
  const scenario::Trace trace = small_trace(14);
  RouterOptions options;
  options.shards = 2;
  options.wal_root = dir.path;

  std::vector<std::string> incumbents;
  std::size_t active = 0;
  {
    auto router = ShardRouter::open(trace.platform, options);
    ASSERT_TRUE(router.is_ok()) << router.status().to_string();
    for (const Event& event : trace.events) router.value()->apply(event);
    for (std::size_t s = 0; s < options.shards; ++s) {
      incumbents.push_back(incumbent_json(router.value()->shard(s)));
    }
    active = router.value()->active_pipelines();
    router.value()->stop();
  }

  auto recovered = ShardRouter::recover(options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  ASSERT_EQ(recovered.value()->num_shards(), options.shards);
  for (std::size_t s = 0; s < options.shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(incumbent_json(recovered.value()->shard(s)), incumbents[s]);
  }
  EXPECT_EQ(recovered.value()->active_pipelines(), active);
  recovered.value()->stop();
}

TEST(ShardRouter, StatsSumEveryShardsWalCommits) {
  // apply() waits for each event, so every WAL commit holds one event
  // and a shard's commits equal its event count (a broadcast resize
  // counts on every shard); the merged count is their sum.
  const TempDir dir("commits");
  const scenario::Trace trace = small_trace(14);
  RouterOptions options;
  options.shards = 2;
  options.wal_root = dir.path;
  auto router = ShardRouter::open(trace.platform, options);
  ASSERT_TRUE(router.is_ok()) << router.status().to_string();
  for (const Event& event : trace.events) router.value()->apply(event);
  router.value()->stop();
  std::uint64_t commits = 0;
  for (const ServiceStats& s : router.value()->shard_stats()) {
    EXPECT_EQ(s.wal_commits, s.sequence);
    commits += s.wal_commits;
  }
  EXPECT_GE(commits, trace.events.size());
  EXPECT_EQ(router.value()->stats().wal_commits, commits);
}

TEST(ShardRouter, RecoverRejectsShardCountMismatch) {
  const TempDir dir("mismatch");
  const scenario::Trace trace = small_trace(4);
  RouterOptions options;
  options.shards = 2;
  options.wal_root = dir.path;
  {
    auto router = ShardRouter::open(trace.platform, options);
    ASSERT_TRUE(router.is_ok());
    for (const Event& event : trace.events) router.value()->apply(event);
    router.value()->stop();
  }
  const std::string layout = dir.path + "/layout.json";
  const std::string record =
      "{\"schema_version\":1,\"format\":\"mfa-shards\",\"shards\":2,"
      "\"partition\":\"jump-fnv1a64\"}\n";
  const std::string other_partition =
      "{\"schema_version\":1,\"format\":\"mfa-shards\",\"shards\":2,"
      "\"partition\":\"ring-fnv1a64\"}\n";
  StatusOr<std::string> written = io::read_file(layout);
  ASSERT_TRUE(written.is_ok()) << written.status().to_string();
  EXPECT_EQ(written.value(), record);
  const auto expect_invalid = [](const RouterOptions& o,
                                 const std::string& why) {
    SCOPED_TRACE(why);
    auto recovered = ShardRouter::recover(o);
    ASSERT_FALSE(recovered.is_ok());
    EXPECT_EQ(recovered.status().code(), Code::kInvalid);
    EXPECT_NE(recovered.status().message().find("layout"), std::string::npos)
        << recovered.status().message();
  };
  const auto rewrite = [&layout](const std::string& text) {
    std::ofstream(layout, std::ios::trunc) << text;
  };

  // Fewer shards than the layout: shard-1's history would be orphaned.
  RouterOptions fewer = options;
  fewer.shards = 1;
  expect_invalid(fewer, "fewer shards");
  // More shards than the layout: shard-2 has no WAL to recover from.
  RouterOptions more = options;
  more.shards = 3;
  expect_invalid(more, "more shards");

  // A root written before the layout record existed has none.
  fs::remove(layout);
  expect_invalid(options, "missing record");
  rewrite(other_partition);
  expect_invalid(options, "other partition");
  rewrite(record.substr(0, 30));
  expect_invalid(options, "corrupt record");

  // The record alone decided: restoring it recovers the root.
  rewrite(record);
  auto recovered = ShardRouter::recover(options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  recovered.value()->stop();
}

TEST(ShardRouter, OpenRejectsZeroShards) {
  const scenario::Trace trace = small_trace(1);
  RouterOptions options;
  options.shards = 0;
  EXPECT_FALSE(ShardRouter::open(trace.platform, options).is_ok());
}

TEST(ShardRouter, OpenRejectsAnInvalidPlatform) {
  // A bad pool fails the open, typed, before any directory is made.
  const TempDir dir("router_invalid_platform");
  core::Platform platform{"negative", 2};
  platform.capacity[core::Resource::kBram] = -1.0;
  RouterOptions options;
  options.wal_root = dir.path;
  auto router = ShardRouter::open(platform, options);
  ASSERT_FALSE(router.is_ok());
  EXPECT_EQ(router.status().code(), Code::kInvalid);
  EXPECT_EQ(router.status().message(),
            "platform capacities must be non-negative");
  EXPECT_FALSE(fs::exists(dir.path));
}

}  // namespace
}  // namespace mfa::service
