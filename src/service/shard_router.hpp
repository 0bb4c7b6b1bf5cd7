// Consistent-hash router over N in-process AllocServer shards.
//
// One AllocServer serializes every event through a single dispatcher —
// correct, but the solve is the bottleneck and unrelated pipelines have
// no reason to queue behind each other. ShardRouter partitions the
// tenant space instead: each pipeline id is assigned to one of N
// independent AllocServers by consistent hashing, so all events for one
// pipeline land on the same shard (per-pipeline ordering is preserved)
// while different shards solve concurrently.
//
// Hashing is jump consistent hashing (Lamping & Veach, "A Fast, Minimal
// Memory, Consistent Hash Algorithm", 2014) over a *pinned* FNV-1a 64
// of the id — never std::hash, whose values are implementation-defined
// and may differ across libstdc++ versions, which would silently
// re-partition every tenant (and break WAL recovery) on a toolchain
// upgrade. Jump hashing needs no table: it spreads any 64-bit key
// evenly over the shards, and its integer form keeps the assignment a
// documented, stable function of (id, shards) with no floating-point
// rounding. The partition is named "jump-fnv1a64" in the layout record
// (see Durability); any change to it needs a new name.
//
// Each shard manages its own platform instance (every shard is
// configured with the same initial pool shape, so the deployment
// models N pool replicas with tenants spread across them);
// ResizePlatform events carry no pipeline id and are *broadcast* to
// every shard. Shards share nothing, so every counter in a shard's
// EventOutcome comes from that shard's own state and a shard's outcome
// log equals that of a standalone AllocServer fed the same events.
//
// Thread model: the router itself is immutable after open()/recover()
// — shards_ is built once and never mutated, so
// submit()/stats()/shard_of() need no router-level lock from any
// thread. All mutable state lives inside the individual AllocServers
// (guarded by their state_mutex_). stop() only calls the shards' own
// idempotent stop().
//
// Durability: with RouterOptions::wal_root set, shard i logs to
// <wal_root>/shard-<i> (its own WAL + snapshots), and recover()
// rebuilds every shard. The partition decides which shard's WAL owns a
// tenant, so it is part of the on-disk layout: once the shard WALs
// exist, open() durably writes <wal_root>/layout.json,
//
//   {"schema_version":1,"format":"mfa-shards","shards":N,
//    "partition":"jump-fnv1a64"}
//
// and recover() refuses, with kInvalid, a root whose record is missing
// (a root written by a build that partitioned differently has none),
// unparseable, names another partition, or holds another shard count.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/alloc_server.hpp"

namespace mfa::service {

struct RouterOptions {
  /// Independent AllocServer shards (>= 1). Part of the WAL layout.
  std::size_t shards = 2;
  /// Template applied to every shard. wal_dir is managed by the router
  /// (set wal_root below instead).
  ServerOptions server;
  /// Durability root; empty disables WALs. Shard i uses
  /// <wal_root>/shard-<i>; the layout record is <wal_root>/layout.json.
  std::string wal_root;
};

/// Stable 64-bit FNV-1a (see file comment on why not std::hash).
std::uint64_t stable_hash(std::string_view bytes);

class ShardRouter {
 public:
  /// Starts `options.shards` fresh shards, each owning a copy of
  /// `platform` (creating per-shard WALs under wal_root when set). A
  /// bad platform is kInvalid before any directory is made.
  static StatusOr<std::unique_ptr<ShardRouter>> open(
      const core::Platform& platform, RouterOptions options);

  /// Rebuilds every shard from <wal_root>/shard-<i>. The root's
  /// layout.json must name this build's partition and `options.shards`.
  static StatusOr<std::unique_ptr<ShardRouter>> recover(
      RouterOptions options);

  /// Stops every shard (idempotent; also run by the destructor).
  void stop();

  /// Routes the event to its pipeline's shard. ResizePlatform is
  /// broadcast: the returned (deferred) future resolves to a merged
  /// outcome — first non-ok status, summed pipeline/node/migration
  /// counters, shard 0's incumbent fields — once every shard has
  /// applied it.
  std::future<EventOutcome> submit(Event event);

  /// Convenience: submit and wait.
  EventOutcome apply(Event event) { return submit(std::move(event)).get(); }

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }

  /// The shard an id routes to: jump consistent hash of stable_hash(id)
  /// over num_shards().
  [[nodiscard]] std::size_t shard_of(std::string_view id) const;

  [[nodiscard]] const AllocServer& shard(std::size_t i) const {
    return *shards_[i];
  }

  /// Merged counters: sums across shards; sequence is the total event
  /// count; latency percentiles are the worst shard's (conservative).
  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] std::vector<ServiceStats> shard_stats() const;

  /// Per-shard incumbents (a shard with an empty pool reports nullopt).
  [[nodiscard]] std::vector<std::optional<runtime::SolveResult>>
  incumbents() const;

  [[nodiscard]] std::size_t active_pipelines() const;

  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

 private:
  explicit ShardRouter(RouterOptions options);

  RouterOptions options_;
  std::vector<std::unique_ptr<AllocServer>> shards_;
};

}  // namespace mfa::service
