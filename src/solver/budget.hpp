// Search budgets for the exact solvers.
//
// Exact search is worst-case exponential; every solver in this module
// takes a Budget and reports whether it *proved* optimality or stopped at
// the budget with the incumbent. Benchmarks rely on this to stay bounded
// on small machines while tests use effectively-unlimited budgets on
// small instances.
//
// A Budget may be shared by several solver threads (the runtime portfolio
// races strategies under one deadline): tick()/consume() are lock-free,
// the node count is exact under concurrency, and expire() cooperatively
// cancels every solver polling the same budget. tick() is for searches
// that share a budget node for node (NaiveMinlp); a search that owns
// its budget can count nodes itself and settle through consume() in
// batches, as the packing search does every 1,024 nodes.
//
// Thread model (for -Wthread-safety readers): Budget holds no mutex and
// therefore carries no capability annotations — every shared member is
// a relaxed atomic and every invariant is per-field, so there is no
// multi-field critical section for the analysis to check. The
// non-atomic members (max_nodes_, deadline_, has_deadline_) are set at
// construction and immutable afterwards; copy/assign are *not*
// concurrency-safe against a racing tick() on the source and are only
// used before a budget is shared.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>

namespace mfa::solver {

class Budget {
 public:
  /// Unlimited budget.
  Budget() = default;

  // max_seconds is clamped to ~30 years: beyond that the duration_cast
  // to the clock's integer representation would overflow (UB) — callers
  // pass user-supplied values (e.g. the CLI's --seconds).
  Budget(std::int64_t max_nodes, double max_seconds)
      : max_nodes_(max_nodes),
        deadline_(Clock::now() +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(
                          std::min(max_seconds, 1e9)))),
        has_deadline_(true) {}

  static Budget nodes_only(std::int64_t max_nodes) {
    Budget b;
    b.max_nodes_ = max_nodes;
    return b;
  }

  // Copies snapshot the counters (atomics are not copyable themselves);
  // a copy is an independent budget, not a shared handle.
  Budget(const Budget& other)
      : max_nodes_(other.max_nodes_),
        nodes_(other.nodes_.load(std::memory_order_relaxed)),
        ticks_(other.ticks_.load(std::memory_order_relaxed)),
        deadline_(other.deadline_),
        has_deadline_(other.has_deadline_),
        exhausted_(other.exhausted_.load(std::memory_order_relaxed)) {}
  Budget& operator=(const Budget& other) {
    max_nodes_ = other.max_nodes_;
    nodes_.store(other.nodes_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    ticks_.store(other.ticks_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    deadline_ = other.deadline_;
    has_deadline_ = other.has_deadline_;
    exhausted_.store(other.exhausted_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    return *this;
  }

  /// Counts one search node; returns false once the budget is exhausted.
  /// The deadline is polled every 1024 of *this budget's* ticks, counted
  /// by a dedicated tick counter — never against the shared node count,
  /// which bulk consume() calls from racing lanes can jump past every
  /// multiple of 1024, starving an alignment-based poll indefinitely.
  /// Since consume() never touches the tick counter, every 1024th tick
  /// lands exactly on a poll regardless of what other lanes do, and the
  /// shared exhausted_ flag stops all of them.
  /// Safe to call from several threads; each node is counted exactly once.
  /// Meant for searches that share a budget node for node: its two
  /// atomic adds are a large share of a cheap node's cost.
  bool tick() {
    const std::int64_t n =
        nodes_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n > max_nodes_) {
      exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
    if (has_deadline_) {
      const std::int64_t t =
          ticks_.fetch_add(1, std::memory_order_relaxed) + 1;
      if ((t & 1023) == 0 && Clock::now() > deadline_) {
        exhausted_.store(true, std::memory_order_relaxed);
        return false;
      }
    }
    return !exhausted_.load(std::memory_order_relaxed);
  }

  /// Bulk-accounts `n` nodes spent elsewhere (e.g. a sub-solver that ran
  /// under its own per-call budget, or a batch a search counted itself)
  /// and polls the deadline once.
  void consume(std::int64_t n) {
    const std::int64_t total =
        nodes_.fetch_add(n, std::memory_order_relaxed) + n;
    if (total > max_nodes_ ||
        (has_deadline_ && Clock::now() > deadline_)) {
      exhausted_.store(true, std::memory_order_relaxed);
    }
  }

  /// Cooperative cancellation: every subsequent tick() (from any thread)
  /// returns false. Used by the portfolio once a strategy has proved
  /// optimality and the remaining races are pointless.
  void expire() { exhausted_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] bool exhausted() const {
    return exhausted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t nodes_used() const {
    return nodes_.load(std::memory_order_relaxed);
  }

  /// Nodes still spendable (0 when exhausted/overrun).
  [[nodiscard]] std::int64_t remaining_nodes() const {
    if (exhausted()) return 0;
    return std::max<std::int64_t>(0, max_nodes_ - nodes_used());
  }

  /// Seconds until the deadline (+inf without one, 0 when exhausted).
  [[nodiscard]] double remaining_seconds() const {
    if (exhausted()) return 0.0;
    if (!has_deadline_) return std::numeric_limits<double>::infinity();
    return std::max(
        0.0,
        std::chrono::duration<double>(deadline_ - Clock::now()).count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::int64_t max_nodes_ = std::numeric_limits<std::int64_t>::max();
  std::atomic<std::int64_t> nodes_{0};
  /// tick()-only counter driving deadline polls (see tick()).
  std::atomic<std::int64_t> ticks_{0};
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::atomic<bool> exhausted_{false};
};

}  // namespace mfa::solver
