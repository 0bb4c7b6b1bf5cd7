#include "service/shard_router.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace mfa::service {

std::uint64_t stable_hash(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

namespace {

/// Virtual nodes per shard on the hash ring. Part of the ring layout
/// (and so of every WAL's tenant partition): changing it re-partitions
/// tenants.
constexpr std::size_t kVirtualNodes = 64;

std::string shard_dir(const std::string& root, std::size_t i) {
  return root + "/shard-" + std::to_string(i);
}

/// Merge a broadcast's per-shard outcomes (see ShardRouter::submit).
EventOutcome merge_outcomes(std::vector<EventOutcome> outcomes) {
  EventOutcome merged = outcomes.front();  // shard 0's incumbent fields
  merged.active_pipelines = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const EventOutcome& o = outcomes[i];
    merged.active_pipelines += o.active_pipelines;
    if (i == 0) continue;
    if (merged.status.is_ok() && !o.status.is_ok()) merged.status = o.status;
    if (merged.solve_status.is_ok() && !o.solve_status.is_ok()) {
      merged.solve_status = o.solve_status;
    }
    merged.solve.warm_started =
        merged.solve.warm_started && o.solve.warm_started;
    merged.solve.nodes += o.solve.nodes;
    merged.cache.relax_hits += o.cache.relax_hits;
    merged.diff.computed = merged.diff.computed || o.diff.computed;
    merged.diff.cus_moved += o.diff.cus_moved;
    merged.diff.pipelines_disturbed += o.diff.pipelines_disturbed;
    merged.diff.goal_regret += o.diff.goal_regret;
    merged.diff.stability_applied =
        merged.diff.stability_applied || o.diff.stability_applied;
    merged.diff.budget_exceeded =
        merged.diff.budget_exceeded || o.diff.budget_exceeded;
    merged.seconds = std::max(merged.seconds, o.seconds);
  }
  return merged;
}

}  // namespace

ShardRouter::ShardRouter(RouterOptions options)
    : options_(std::move(options)) {
  build_ring();
}

void ShardRouter::build_ring() {
  ring_.reserve(options_.shards * kVirtualNodes);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    for (std::size_t v = 0; v < kVirtualNodes; ++v) {
      const std::string point =
          "shard-" + std::to_string(i) + "#" + std::to_string(v);
      ring_.emplace_back(stable_hash(point), i);
    }
  }
  // Sort by point; break hash collisions by shard index so the ring is
  // a total order independent of insertion order.
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ShardRouter::shard_of(std::string_view id) const {
  if (shards_.size() <= 1) return 0;
  const std::uint64_t h = stable_hash(id);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, std::size_t>& node,
         std::uint64_t point) { return node.first < point; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

StatusOr<std::unique_ptr<ShardRouter>> ShardRouter::open(
    const core::Platform& platform, RouterOptions options) {
  if (options.shards == 0) {
    return Status{Code::kInvalid, "router: shards must be >= 1"};
  }
  if (!options.wal_root.empty() &&
      ::mkdir(options.wal_root.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status{Code::kInvalid, "mkdir " + options.wal_root + ": " +
                                      std::strerror(errno)};
  }
  std::unique_ptr<ShardRouter> router(new ShardRouter(std::move(options)));
  for (std::size_t i = 0; i < router->options_.shards; ++i) {
    ServerOptions server = router->options_.server;
    server.wal_dir = router->options_.wal_root.empty()
                         ? std::string()
                         : shard_dir(router->options_.wal_root, i);
    StatusOr<std::unique_ptr<AllocServer>> shard =
        AllocServer::open(platform, std::move(server));
    if (!shard.is_ok()) return shard.status();
    router->shards_.push_back(std::move(shard.value()));
  }
  return StatusOr<std::unique_ptr<ShardRouter>>(std::move(router));
}

StatusOr<std::unique_ptr<ShardRouter>> ShardRouter::recover(
    RouterOptions options) {
  if (options.wal_root.empty()) {
    return Status{Code::kInvalid, "recover: RouterOptions::wal_root not set"};
  }
  if (options.shards == 0) {
    return Status{Code::kInvalid, "router: shards must be >= 1"};
  }
  // The shard count is part of the on-disk layout: a mismatch would
  // re-partition tenants mid-history. Reject extra or missing dirs.
  struct stat st{};
  if (::stat(shard_dir(options.wal_root, options.shards).c_str(), &st) ==
      0) {
    return Status{Code::kInvalid,
                  "recover: wal_root has more shards than options.shards (" +
                      std::to_string(options.shards) + ")"};
  }
  std::unique_ptr<ShardRouter> router(new ShardRouter(std::move(options)));
  for (std::size_t i = 0; i < router->options_.shards; ++i) {
    ServerOptions server = router->options_.server;
    server.wal_dir = shard_dir(router->options_.wal_root, i);
    StatusOr<std::unique_ptr<AllocServer>> shard =
        AllocServer::recover(std::move(server));
    if (!shard.is_ok()) {
      return Status{shard.status().code(),
                    "shard " + std::to_string(i) + ": " +
                        shard.status().message()};
    }
    router->shards_.push_back(std::move(shard.value()));
  }
  return StatusOr<std::unique_ptr<ShardRouter>>(std::move(router));
}

ShardRouter::~ShardRouter() { stop(); }

void ShardRouter::stop() {
  for (std::unique_ptr<AllocServer>& shard : shards_) shard->stop();
}

std::future<EventOutcome> ShardRouter::submit(Event event) {
  if (event.type == Event::Type::kResizePlatform) {
    // Broadcast: enqueue on every shard *now* (so they all solve
    // concurrently), defer only the merge to get().
    auto futures =
        std::make_shared<std::vector<std::future<EventOutcome>>>();
    futures->reserve(shards_.size());
    for (std::unique_ptr<AllocServer>& shard : shards_) {
      futures->push_back(shard->submit(event));
    }
    return std::async(std::launch::deferred, [futures] {
      std::vector<EventOutcome> outcomes;
      outcomes.reserve(futures->size());
      for (std::future<EventOutcome>& f : *futures) {
        outcomes.push_back(f.get());
      }
      return merge_outcomes(std::move(outcomes));
    });
  }
  const std::string& id = event.type == Event::Type::kAddPipeline
                              ? event.pipeline.id
                              : event.id;
  return shards_[shard_of(id)]->submit(std::move(event));
}

ServiceStats ShardRouter::stats() const {
  ServiceStats merged;
  for (const std::unique_ptr<AllocServer>& shard : shards_) {
    const ServiceStats s = shard->stats();
    merged.sequence += s.sequence;
    merged.events_ok += s.events_ok;
    merged.events_failed += s.events_failed;
    merged.resizes += s.resizes;
    merged.active_pipelines += s.active_pipelines;
    merged.solve_nodes += s.solve_nodes;
    merged.relax_hits += s.relax_hits;
    merged.cus_moved += s.cus_moved;
    merged.pipelines_disturbed += s.pipelines_disturbed;
    merged.stability_repacks += s.stability_repacks;
    merged.budget_exceeded += s.budget_exceeded;
    merged.snapshots += s.snapshots;
    merged.wal_errors += s.wal_errors;
    merged.warm_allocs += s.warm_allocs;
    merged.p50_ms = std::max(merged.p50_ms, s.p50_ms);
    merged.p95_ms = std::max(merged.p95_ms, s.p95_ms);
    merged.p99_ms = std::max(merged.p99_ms, s.p99_ms);
    merged.max_ms = std::max(merged.max_ms, s.max_ms);
  }
  return merged;
}

std::vector<ServiceStats> ShardRouter::shard_stats() const {
  std::vector<ServiceStats> stats;
  stats.reserve(shards_.size());
  for (const std::unique_ptr<AllocServer>& shard : shards_) {
    stats.push_back(shard->stats());
  }
  return stats;
}

std::vector<std::optional<runtime::SolveResult>> ShardRouter::incumbents()
    const {
  std::vector<std::optional<runtime::SolveResult>> incumbents;
  incumbents.reserve(shards_.size());
  for (const std::unique_ptr<AllocServer>& shard : shards_) {
    incumbents.push_back(shard->incumbent());
  }
  return incumbents;
}

std::size_t ShardRouter::active_pipelines() const {
  std::size_t active = 0;
  for (const std::unique_ptr<AllocServer>& shard : shards_) {
    active += shard->active_pipelines();
  }
  return active;
}

}  // namespace mfa::service
