// Generic thread-safe sharded cache keyed by 128-bit fingerprints.
//
// This is the memoization substrate behind both RelaxationCache
// (core/relax_cache.hpp, caching relaxation solves) and GreedyCache
// (alloc/greedy.hpp, caching Algorithm 1 placements). One template, one
// set of semantics:
//
// Determinism contract: a key must capture *all* inputs that determine
// the cached bytes, so every thread that computes a given key computes
// bit-identical values. Insertion is first-writer-wins; later writers
// discard their copy. A lookup hit therefore returns exactly what the
// thread would have computed itself.
//
// Entries are shared_ptr-owned, so a hit stays valid after eviction,
// clear() or cache death.
//
// Sharding and eviction (for long-lived owners): the key space can be
// split across several independently locked shards — selected by the
// fingerprint's high bits, so hot concurrent traffic does not
// serialize on one mutex — and each shard can be capacity-bounded with
// FIFO eviction. Eviction is *transparent*
// under the determinism contract: an evicted key simply recomputes to
// the identical bytes on its next miss. The default configuration (one
// shard, unbounded) has no eviction at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/assert.hpp"
#include "support/fingerprint.hpp"
#include "support/mutex.hpp"

namespace mfa::core {

using ::mfa::Fingerprint;

/// Sharding / bounding knobs; the defaults give a single-shard
/// unbounded cache.
struct CacheConfig {
  /// Number of independently locked shards; rounded up to a power of
  /// two. Keys map to shards by their fingerprint's high bits.
  std::size_t shards = 1;
  /// Upper bound on resident entries across all shards (0 = unbounded).
  /// Enforced per shard as max_entries / shards (at least 1), with FIFO
  /// eviction of the shard's oldest insertion.
  std::size_t max_entries = 0;
};

template <typename Value>
class ShardedCache {
 public:
  ShardedCache() : ShardedCache(CacheConfig{}) {}
  explicit ShardedCache(CacheConfig config) {
    // Guard before rounding: the power-of-two doubling would loop
    // forever once it overflows, so an absurd shard count must assert
    // first.
    MFA_ASSERT_MSG(config.shards <= (std::size_t{1} << 20),
                   "implausible cache shard count");
    std::size_t shards = 1;
    while (shards < config.shards) shards <<= 1;
    shards_ = std::vector<Shard>(shards);
    unsigned bits = 0;
    for (std::size_t s = shards; s > 1; s >>= 1) ++bits;
    shard_shift_ = 64 - bits;  // unused (guarded) when shards == 1
    if (config.max_entries > 0) {
      per_shard_capacity_ = config.max_entries / shards;
      if (per_shard_capacity_ == 0) per_shard_capacity_ = 1;
    }
  }
  ShardedCache(const ShardedCache&) = delete;
  ShardedCache& operator=(const ShardedCache&) = delete;

  /// Returns the cached entry for `key`, or nullptr on a miss.
  [[nodiscard]] std::shared_ptr<const Value> lookup(
      const Fingerprint& key) const {
    Shard& shard = shard_for(key);
    LockGuard lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  /// Inserts `value` under `key` unless another thread got there first;
  /// either way returns the entry that ends up (or already was) stored.
  /// May evict the owning shard's oldest entry when capacity-bounded.
  std::shared_ptr<const Value> insert(const Fingerprint& key, Value value) {
    auto entry = std::make_shared<const Value>(std::move(value));
    Shard& shard = shard_for(key);
    LockGuard lock(shard.mutex);
    auto [it, inserted] = shard.entries.emplace(key, std::move(entry));
    if (inserted && per_shard_capacity_ > 0) {
      shard.order.push_back(key);
      while (shard.entries.size() > per_shard_capacity_) {
        // FIFO: drop the shard's oldest insertion. Outstanding
        // shared_ptr holders keep the evicted bytes alive; the key
        // itself recomputes to identical bytes on its next miss
        // (determinism contract).
        shard.entries.erase(shard.order.front());
        shard.order.pop_front();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return it->second;  // first writer wins; racers get the stored entry
  }

  /// Convenience: lookup, and on a miss run `solve()` and insert its
  /// outcome. Exactly-once execution is NOT guaranteed under races (two
  /// threads may both solve; one insert wins), but the returned entry is
  /// identical either way per the determinism contract.
  template <typename SolveFn>
  std::shared_ptr<const Value> get_or_solve(const Fingerprint& key,
                                            SolveFn&& solve) {
    if (auto hit = lookup(key)) return hit;
    return insert(key, solve());
  }

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
      LockGuard lock(shard.mutex);
      s.entries += shard.entries.size();
    }
    return s;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      LockGuard lock(shard.mutex);
      total += shard.entries.size();
    }
    return total;
  }

  void clear() {
    for (Shard& shard : shards_) {
      LockGuard lock(shard.mutex);
      shard.entries.clear();
      shard.order.clear();
    }
  }

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  /// Resident-entry bound across all shards (0 = unbounded).
  [[nodiscard]] std::size_t capacity() const {
    return per_shard_capacity_ == 0 ? 0
                                    : per_shard_capacity_ * shards_.size();
  }

 private:
  struct KeyHash {
    std::size_t operator()(const Fingerprint& fp) const {
      return static_cast<std::size_t>(fp.hi ^ (fp.lo * 0x9e3779b97f4a7c15ull));
    }
  };

  struct Shard {
    mutable Mutex mutex;
    std::unordered_map<Fingerprint, std::shared_ptr<const Value>, KeyHash>
        entries MFA_GUARDED_BY(mutex);
    /// Insertion order of resident keys, oldest first (FIFO eviction).
    std::deque<Fingerprint> order MFA_GUARDED_BY(mutex);
  };

  [[nodiscard]] Shard& shard_for(const Fingerprint& key) const {
    // High bits select the shard: the map's own hash (above) leans on
    // the low lane, so the two functions stay independent. The explicit
    // single-shard case avoids a 64-bit shift by 64 (UB).
    if (shards_.size() == 1) return shards_[0];
    return shards_[key.hi >> shard_shift_];
  }

  mutable std::vector<Shard> shards_;
  unsigned shard_shift_ = 64;           ///< 64 − log2(shard count)
  std::size_t per_shard_capacity_ = 0;  ///< 0 = unbounded
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace mfa::core
