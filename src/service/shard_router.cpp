#include "service/shard_router.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "io/serialize.hpp"

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

/// The WAL root's layout record and the partition this build routes
/// by (see the file comment). Changing jump_hash or stable_hash needs a
/// new partition name, so that recover() refuses the old roots.
constexpr const char* kLayoutName = "layout.json";
constexpr const char* kPartition = "jump-fnv1a64";

/// Jump consistent hash (Lamping & Veach), integer form: the bucket in
/// [0, buckets) that `key` lands in.
std::size_t jump_hash(std::uint64_t key, std::size_t buckets) {
  std::uint64_t b = 0;
  std::uint64_t j = 0;
  while (j < buckets) {
    b = j;
    key = key * 2862933555777941757ull + 1;
    j = ((b + 1) << 31) / ((key >> 33) + 1);
  }
  return static_cast<std::size_t>(b);
}

std::string shard_dir(const std::string& root, std::size_t i) {
  return root + "/shard-" + std::to_string(i);
}

/// The layout record open() writes for `shards` shards.
io::Json layout_record(std::size_t shards) {
  io::Json j = io::Json::object();
  j.set("schema_version", io::Json::number(1));
  j.set("format", io::Json::string("mfa-shards"));
  j.set("shards", io::Json::number(static_cast<double>(shards)));
  j.set("partition", io::Json::string(kPartition));
  return j;
}

/// kInvalid, naming the first mismatching field, unless
/// <root>/layout.json holds layout_record(shards).
Status check_layout(const std::string& root, std::size_t shards) {
  const std::string path = root + "/" + kLayoutName;
  const auto invalid = [&path](const std::string& why) {
    return Status{Code::kInvalid, "recover: shard layout " + path + ": " + why};
  };
  StatusOr<std::string> text = io::read_file(path);
  if (!text.is_ok()) {
    return invalid(std::string("missing; roots written before the ") +
                   kPartition + " partition cannot be recovered");
  }
  StatusOr<io::Json> doc = io::Json::parse(text.value());
  if (!doc.is_ok()) return invalid(doc.status().message());
  const io::Json expected = layout_record(shards);
  for (const auto& [key, want] : expected.members()) {
    const io::Json* got = doc.value().find(key);
    if (got == nullptr) return invalid("no \"" + key + "\" field");
    if (got->dump() != want.dump()) {
      return invalid(key + " is " + got->dump() + ", not " + want.dump());
    }
  }
  return Status::ok();
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
    merged.solve.nodes += o.solve.nodes;
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
    : options_(std::move(options)) {}

std::size_t ShardRouter::shard_of(std::string_view id) const {
  return jump_hash(stable_hash(id), shards_.size());
}

StatusOr<std::unique_ptr<ShardRouter>> ShardRouter::open(
    const core::Platform& platform, RouterOptions options) {
  if (options.shards == 0) {
    return Status{Code::kInvalid, "router: shards must be >= 1"};
  }
  if (Status valid = platform.validate(); !valid.is_ok()) return valid;
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
  // The layout record lands once every shard's WAL exists; its
  // directory fsync also makes the shard-<i> entries durable.
  const RouterOptions& opts = router->options_;
  if (!opts.wal_root.empty()) {
    const std::string record = layout_record(opts.shards).dump() + "\n";
    if (Status s = replace_file(opts.wal_root, kLayoutName, record,
                                opts.server.wal_fsync);
        !s.is_ok()) {
      return s;
    }
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
  // The partition and shard count decide which WAL owns a tenant: any
  // other layout would route events to shards that never saw them.
  if (Status s = check_layout(options.wal_root, options.shards); !s.is_ok()) {
    return s;
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
    merged.cus_moved += s.cus_moved;
    merged.pipelines_disturbed += s.pipelines_disturbed;
    merged.stability_repacks += s.stability_repacks;
    merged.budget_exceeded += s.budget_exceeded;
    merged.snapshots += s.snapshots;
    merged.wal_commits += s.wal_commits;
    merged.wal_errors += s.wal_errors;
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
