// Long-lived allocation service over the shared multi-FPGA pool.
//
// AllocServer turns the static per-instance solvers into an online
// system: it owns the pool (a core::Platform) and the set of live
// pipelines, and consumes a stream of events — AddPipeline,
// RemovePipeline, Reprioritize, ResizePlatform — through an MPMC queue.
//
// Each event mutates the workload and triggers a re-solve of the
// composite problem (all live pipelines concatenated into one
// super-pipeline on the shared platform, each pipeline's WCETs scaled
// by its priority weight). The composite itself is maintained by a
// CompositeBuilder (service/composite.hpp) that applies event deltas —
// Reprioritize rewrites a few WCET coefficients in place,
// ResizePlatform swaps the platform, only Add/Remove splice the kernel
// set — instead of rebuilding the super-pipeline from scratch per
// event.
//
// Each event's payload is checked before its delta (kernels through
// core::validate_kernel at their new weight, a resize's platform
// through Platform::validate), and open()/recover() refuse a bad pool:
// a malformed event fails kInvalid and changes nothing, so no delta is
// ever undone.
//
// Each event's solve starts from scratch, as the paper's GP+A does, and
// runs GP+A once: the composite's resource fraction is 1.0, so a lane
// at deviation T > 0 (whose Algorithm 1 cap is min(1.0 + T, 1.0)) would
// repeat lane 0's search and lose the tie to it. Nothing is memoized
// across events or lanes. The per-event portfolio budget
// (ServerOptions::portfolio.max_nodes/max_seconds, enforced through the
// portfolio's shared Budget when exact lanes are enabled) bounds each
// event's latency.
//
// Determinism: events are applied in submission order by one dispatcher
// thread, which also runs the portfolio's lanes in lane order, and with
// the default heuristic-only portfolio every EventOutcome field except
// wall-clock `seconds` is a pure function of (initial platform, event
// sequence, options) — the property the trace replayer's
// byte-identical log check rides on.
//
// Durability (ServerOptions::wal_dir): construct through open() and the
// server keeps a write-ahead log (service/wal.hpp) — each event is
// appended and fsync'd *before* it mutates anything, and the live
// workload is snapshotted every `snapshot_every` events. The dispatcher
// commits in groups: it takes everything queued at once, appends the
// whole group with one write and one fsync, then applies, retains and
// acknowledges the events one at a time in sequence order, so an
// acknowledged event is always durable. A failed group append fails
// every event of the group, unapplied. recover() rebuilds a crashed
// server from snapshot + log tail; because the dispatcher is
// deterministic, the recovered incumbent is *byte-identical* to an
// uninterrupted run's (the crash-recovery CI job asserts exactly that).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/problem.hpp"
#include "runtime/portfolio.hpp"
#include "runtime/solve.hpp"
#include "service/composite.hpp"
#include "service/event.hpp"
#include "service/event_queue.hpp"
#include "service/occupancy.hpp"
#include "service/wal.hpp"
#include "solver/packing.hpp"
#include "support/mutex.hpp"

namespace mfa::service {

struct ServerOptions {
  /// Per-event solver configuration; the lanes run sequentially, in
  /// lane order, on the dispatcher thread. The default differs from
  /// the batch default in two ways. It has one GP+A lane (T = 0): the
  /// composite's resource fraction is 1.0, where every T lane places
  /// the same allocation (see the file comment). And exact lanes are
  /// off, because a daemon must not spend minutes proving optimality
  /// per event and because wall-clock-budgeted exact lanes would make
  /// the event log timing-dependent. Enable run_exact for proof-grade
  /// serving where latency permits.
  runtime::PortfolioOptions portfolio;

  /// Not read by the server, which keeps no solver cache.
  /// e2ebench/src/traced.cpp still sizes its probe caches from them.
  std::size_t cache_shards = 16;
  std::size_t cache_entries = 1 << 16;

  /// Outcomes retained for log(): the newest `log_capacity` events
  /// (0 = unbounded — replay/test harnesses that diff the full log).
  /// A daemon processing millions of events must not accumulate
  /// per-event records forever.
  std::size_t log_capacity = 4096;

  // ---- Migration-aware stability (apply_stability). Both budgets off
  // (-1) keeps the solve path byte-identical to the unconstrained
  // server; the diff in EventOutcome is recorded either way. ------------

  /// Max CUs an event may tear down from surviving pipelines before the
  /// stability ladder kicks in (-1 = unlimited).
  int max_moves = -1;
  /// Max surviving non-target pipelines an event may disturb (-1 =
  /// unlimited).
  int max_disturbed = -1;
  /// Soft migration cost the constrained repack adds per torn CU on top
  /// of φ (0 keeps the pure-φ repack objective).
  double move_cost = 0.0;

  // ---- Durability (see file comment). Servers with a wal_dir must be
  // constructed through open()/recover(), which can report I/O errors;
  // the plain constructor asserts the field is empty. -------------------

  /// WAL directory; empty disables durability entirely.
  std::string wal_dir;
  /// fsync every append/snapshot. Disable only for benchmarking the
  /// serialization cost without the disk stall.
  bool wal_fsync = true;
  /// Snapshot the live workload every N events (0 = never; recovery
  /// then replays the whole log).
  std::size_t snapshot_every = 256;

  ServerOptions() {
    portfolio.gpa_t_max = {0.0};
    portfolio.run_exact = false;
    portfolio.run_naive = false;
    portfolio.max_seconds = 5.0;
    portfolio.max_nodes = 2'000'000;
  }
};

/// Aggregate serving counters (all deterministic except the latency
/// percentiles, which are wall clock over the retained log window).
/// Totals cover events processed by *this* process — after recover()
/// they restart at the replayed tail, they are observability, not
/// durable state.
struct ServiceStats {
  std::uint64_t sequence = 0;   ///< next event sequence number
  std::uint64_t events_ok = 0;
  std::uint64_t events_failed = 0;  ///< event status != ok
  /// ResizePlatform events processed. Under a ShardRouter a resize is
  /// broadcast, so every shard counts the same client event once; the
  /// wire API subtracts the duplicates when reporting how many client
  /// events the deployment has processed (the `post --resume` point).
  std::uint64_t resizes = 0;
  std::size_t active_pipelines = 0;
  std::int64_t solve_nodes = 0;
  // Migration totals (see AllocationDiff): CUs torn down and pipelines
  // disturbed across all events, plus how often the stability ladder
  // repacked or gave up.
  std::uint64_t cus_moved = 0;
  std::uint64_t pipelines_disturbed = 0;
  std::uint64_t stability_repacks = 0;
  std::uint64_t budget_exceeded = 0;
  std::uint64_t snapshots = 0;   ///< snapshots successfully written
  /// WAL group commits that succeeded, each one write plus (with
  /// wal_fsync) one fsync; (events_ok + events_failed) / wal_commits is
  /// the events per commit.
  std::uint64_t wal_commits = 0;
  /// Failed snapshots, plus the events of every failed group append
  /// (counted once per event the failure failed).
  std::uint64_t wal_errors = 0;
  /// Heap allocations observed inside warm delta application across all
  /// events (see EventOutcome::warm_allocs; 0 unless the counting
  /// interposer is linked).
  std::uint64_t warm_allocs = 0;
  double p50_ms = 0.0;  ///< event latency percentiles over log()
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;  ///< slowest event in the retained log window
};

class AllocServer {
 public:
  /// Asserts a valid `platform` and an empty wal_dir (see open()).
  explicit AllocServer(core::Platform platform, ServerOptions options = {});

  /// Constructs a server, creating a *fresh* WAL when
  /// options.wal_dir is set (any previous log there is truncated —
  /// use recover() to resume one). With an empty wal_dir this is the
  /// plain constructor behind a StatusOr; a bad platform is kInvalid.
  static StatusOr<std::unique_ptr<AllocServer>> open(core::Platform platform,
                                                     ServerOptions options);

  /// Rebuilds a server from options.wal_dir: loads the snapshot (if
  /// any), re-solves the spliced workload once, replays the log tail
  /// through the normal dispatcher path, then cuts a torn final line
  /// off the log and resumes appending to it. The caller must pass the
  /// same solver options as the original run for the byte-identity
  /// guarantee to hold (the pool's *shape* comes from the WAL, not from
  /// the options). kInvalid for a bad platform in the log or snapshot.
  static StatusOr<std::unique_ptr<AllocServer>> recover(ServerOptions options);

  /// Stops accepting events, drains the queue, joins the dispatcher.
  ~AllocServer();

  AllocServer(const AllocServer&) = delete;
  AllocServer& operator=(const AllocServer&) = delete;

  /// Enqueues an event (safe from any thread); the future resolves once
  /// the dispatcher has applied it and re-solved.
  std::future<EventOutcome> submit(Event event);

  /// Convenience: submit and wait. Must not be called from the
  /// dispatcher thread (it would deadlock on itself).
  EventOutcome apply(Event event) { return submit(std::move(event)).get(); }

  /// Idempotent shutdown: drains queued events, then joins.
  void stop();

  // ---- Observers (safe from any thread). -------------------------------

  [[nodiscard]] std::size_t active_pipelines() const;

  /// Copy of the current winning solve (nullopt for an empty pool or
  /// before the first successful solve).
  [[nodiscard]] std::optional<runtime::SolveResult> incumbent() const;

  /// Copy of the retained event outcomes, in sequence order — the
  /// newest ServerOptions::log_capacity of them (all, when 0).
  [[nodiscard]] std::vector<EventOutcome> log() const;

  /// Aggregate serving counters (see ServiceStats).
  [[nodiscard]] ServiceStats stats() const;

  /// Snapshot of the per-FPGA occupancy ledger (copies are cheap plain
  /// data; invalid/empty before the first successful solve).
  [[nodiscard]] OccupancyTracker occupancy() const;

 private:
  /// Tag for the delegated constructor that wires everything but does
  /// not start the dispatcher (open()/recover() finish WAL setup first).
  struct DeferStart {};
  AllocServer(core::Platform platform, ServerOptions options, DeferStart);
  void start();

  /// Drains the queue group by group: one WAL append per group, then
  /// process() and acknowledge per event.
  void dispatcher_loop();

  /// How an event's group went to the WAL: the append's status (ok
  /// without a WAL, and for replayed events) and its wall time, which
  /// every event of the group is charged in its `seconds`.
  struct GroupCommit {
    Status status;
    double seconds = 0.0;
  };

  /// Applies one already-logged event end to end (check, composite
  /// delta, re-solve, snapshot) and retains its outcome, under one hold
  /// of state_mutex_. A failed `commit` fails the event without
  /// applying it.
  EventOutcome process(Event event, const GroupCommit& commit)
      MFA_EXCLUDES(state_mutex_);

  /// Re-solves the current composite and refreshes incumbent and
  /// occupancy state, recording solve provenance and the migration diff
  /// into `outcome` (outcome.id names the event's target, "" for
  /// resize). Requires state_mutex_ held and a non-empty pipeline set.
  void resolve_workload(EventOutcome& outcome) MFA_REQUIRES(state_mutex_);

  /// Stability ladder for an over-budget unconstrained result: tries a
  /// constrained repack of its totals, then a pinned placement that
  /// keeps every surviving pipeline exactly in place; on success swaps
  /// the accepted allocation into `result` and stamps outcome.diff.
  /// Requires state_mutex_ held.
  void apply_stability(runtime::SolveResult& result, EventOutcome& outcome)
      MFA_REQUIRES(state_mutex_);

  /// Rebuilds dispatcher state from a loaded WAL (called before
  /// start(); see recover()).
  Status restore(const WalRecovery& recovery) MFA_EXCLUDES(state_mutex_);

  /// Splices a snapshot's placement ledger into the just-re-derived
  /// incumbent (exact rows, recomputed II/φ/goal, occupancy refresh) —
  /// the path-dependence fix for recovery under migration budgets. The
  /// ledger must cover every live pipeline. Requires state_mutex_ held.
  Status restore_placements(const std::vector<PipelinePlacement>& placements)
      MFA_REQUIRES(state_mutex_);

  /// Appends the retained outcome and trims to log_capacity. Requires
  /// state_mutex_ held.
  void retain_outcome(const EventOutcome& outcome)
      MFA_REQUIRES(state_mutex_);

  // ---- Construction-time wiring: set before the dispatcher starts,
  // immutable afterwards (or internally synchronized). No GUARDED_BY —
  // each carries its own thread-model justification. -------------------
  // mfa-lint: allow(mutex-hygiene) immutable after construction
  ServerOptions options_;
  /// Sequential lanes (no pool of its own).
  // mfa-lint: allow(mutex-hygiene) set in ctor; solves serialized by
  // the dispatcher
  runtime::Portfolio portfolio_;

  // ---- Dispatcher-owned workload state, guarded by state_mutex_
  // (declared first so the GUARDED_BY annotations can name it). The
  // dispatcher is the only mutator; observers take the same lock so
  // they always see a consistent (workload, incumbent) pair. -----------
  mutable Mutex state_mutex_;
  /// The live composite problem, maintained by event deltas (owns the
  /// platform; see service/composite.hpp).
  CompositeBuilder composite_ MFA_GUARDED_BY(state_mutex_);
  /// Live set, arrival order.
  std::vector<PipelineSpec> pipelines_ MFA_GUARDED_BY(state_mutex_);
  std::optional<runtime::SolveResult> incumbent_
      MFA_GUARDED_BY(state_mutex_);
  /// True while incumbent_ answers the live pipeline set: the last
  /// re-solve succeeded, or no pipeline is live. After a failed re-solve
  /// the server keeps serving the previous (stale) incumbent.
  bool incumbent_current_ MFA_GUARDED_BY(state_mutex_) = true;
  /// Per-FPGA ledger + per-pipeline placement records, lock-step with
  /// incumbent_ (updated inside resolve_workload, cleared with it).
  OccupancyTracker occupancy_ MFA_GUARDED_BY(state_mutex_);
  /// Newest log_capacity outcomes.
  std::deque<EventOutcome> log_ MFA_GUARDED_BY(state_mutex_);
  std::uint64_t sequence_ MFA_GUARDED_BY(state_mutex_) = 0;
  ServiceStats stats_ MFA_GUARDED_BY(state_mutex_);

  /// Durability; engaged by open()/recover() before the dispatcher
  /// starts, then appended to by dispatcher_loop() and snapshotted by
  /// process(), both under state_mutex_.
  std::optional<Wal> wal_ MFA_GUARDED_BY(state_mutex_);
  /// True while restore() replays the log: suppresses re-writing and
  /// re-counting snapshots (replayed events are already logged).
  bool replaying_ MFA_GUARDED_BY(state_mutex_) = false;

  // mfa-lint: allow(mutex-hygiene) EventQueue, internally synchronized
  EventQueue queue_;
  // mfa-lint: allow(mutex-hygiene) started/joined only under stop_mutex_
  std::thread dispatcher_;
  Mutex stop_mutex_;
  bool started_ MFA_GUARDED_BY(stop_mutex_) = false;
  bool stopped_ MFA_GUARDED_BY(stop_mutex_) = false;
};

}  // namespace mfa::service
