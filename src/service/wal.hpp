// Write-ahead log + snapshots: crash durability for the allocation
// service.
//
// PR 4's byte-identical event log was an *observability* artifact; this
// header promotes the idea to a real WAL. A served event is appended to
// `<dir>/wal.log` — one compact JSON record per line, fsync'd — *before*
// it is applied (append-before-apply). The dispatcher commits in groups:
// every event its queue held goes down in one write and one fsync, and
// only then are the group's events applied and acknowledged, one at a
// time. So after a crash the log contains every event whose outcome was
// ever acknowledged, plus possibly the rest of the last group: events
// that were logged but not yet applied. Recovery replays the log
// through the same deterministic dispatcher and lands on the exact
// state an uninterrupted run would have reached: the solve stack is a
// pure function of (initial platform, event sequence, options), a
// property tests/service_test.cpp has enforced since PR 4.
//
// Layout of a WAL directory:
//
//   wal.log        line 0: header {"schema_version":1,"format":
//                  "mfa-wal","platform":{...}} — the pool before any
//                  event, so a log is self-contained;
//                  lines 1..: records {"schema_version":1,"seq":N,
//                  "event":{...}} in sequence order, starting at 0.
//   snapshot.json  optional durable workload state at a sequence point
//                  (platform + live pipelines), written atomically
//                  (tmp + rename) every ServerOptions::snapshot_every
//                  events so recovery replays a tail, not the world.
//
// The log is never compacted: recovery correctness only needs snapshot
// + tail, but the full log is the service's event history — the
// crash-recovery CI job byte-compares it against an uninterrupted run's
// log. The only bytes ever cut are a torn final line (see below).
//
// Torn writes: a crash can cut the last group's write at any byte,
// leaving the group's complete records before the cut and at most one
// partial final line. load() accepts exactly one unparseable *trailing*
// record and drops it (the event was never applied nor acknowledged —
// append-before-apply means losing it is correct); an unparseable
// record anywhere else is corruption and fails with kInvalid. load()
// reports the length of the valid prefix, and open() truncates the log
// to it before the first append, so the next record starts on a line
// of its own instead of being glued onto the partial one (which would
// make the *following* load() reject the log). Every record carries
// schema_version and load() rejects unknown or missing versions with a
// typed Status (see io/serialize.hpp).
//
// Known gap: a group whose write lands but whose fsync fails (or whose
// write fails after some of its bytes landed) is reported failed, and
// none of its events is applied, yet the bytes may still reach the disk
// and recovery would then replay events a client was told had failed.
// A per-event append has the same gap; closing it needs the WAL
// fault-injection seam on the ROADMAP.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/problem.hpp"
#include "service/event.hpp"
#include "service/occupancy.hpp"
#include "support/status.hpp"

namespace mfa::service {

/// One durable log entry: the event and the sequence number the
/// dispatcher assigned it.
struct WalRecord {
  std::uint64_t sequence = 0;
  Event event;
};

/// Durable workload state at a sequence point: everything needed to
/// reconstruct the server's deterministic state without replaying the
/// events before `sequence`. Without migration budgets the incumbent is
/// a pure function of (platform, pipelines, options) and one solve
/// re-derives it; under budgets it is path-dependent (a repack's output
/// depends on the previous placement), so the snapshot also carries the
/// placement ledger and recovery restores the incumbent rows exactly.
struct WalSnapshot {
  std::uint64_t sequence = 0;  ///< events applied when the snapshot ran
  core::Platform platform;     ///< pool shape at that point
  std::vector<PipelineSpec> pipelines;  ///< live set, arrival order
  /// Per-pipeline CU placements (composite order, same shape as the
  /// occupancy records), one per live pipeline: the server snapshots
  /// only while its incumbent answers the live set.
  std::vector<PipelinePlacement> placements;
};

/// What load() hands back for recovery.
struct WalRecovery {
  core::Platform initial_platform;  ///< from the log header
  std::optional<WalSnapshot> snapshot;
  /// Records to replay: sequence >= snapshot->sequence (all records
  /// when there is no snapshot), contiguous.
  std::vector<WalRecord> tail;
  /// One past the last logged sequence (0 for an empty log).
  std::uint64_t next_sequence = 0;
  /// Length in bytes of wal.log's valid prefix: the header and every
  /// record kept above. A torn final line lies past it.
  std::uint64_t valid_bytes = 0;
};

/// Append handle on a WAL directory. Single writer (the dispatcher);
/// movable, closes on destruction. All I/O failures surface as Status —
/// a full disk fails the *event*, never the process.
///
/// Thread model: Wal is deliberately unsynchronized. The instance lives
/// in AllocServer::wal_, which is MFA_GUARDED_BY(state_mutex_) — the
/// server's lock is the capability; appends and snapshots only ever
/// happen with it held. A standalone Wal (tests, tools) is
/// single-threaded by construction.
class Wal {
 public:
  struct Options {
    /// fsync every append (and snapshot). Disable only for benchmarks
    /// that want the serialization cost without the disk stall.
    bool fsync;
    // Explicit constructor (not a default member initializer): the
    // in-class `= Options()` default arguments below may not use a DMI
    // before the enclosing class is complete.
    explicit Options(bool fsync_in = true) : fsync(fsync_in) {}
  };

  /// Starts a fresh log in `dir` (creating the directory, truncating
  /// any previous log and removing a stale snapshot), writing the
  /// header line for `initial_platform`.
  static StatusOr<Wal> create(const std::string& dir,
                              const core::Platform& initial_platform,
                              Options options = Options());

  /// Opens an existing log for appending after load() and replay.
  /// First truncates wal.log to `valid_bytes` (WalRecovery::valid_bytes),
  /// dropping a torn final line, and ends a kept final record that lost
  /// only its newline; with options.fsync the repair is fsync'd before
  /// open() returns.
  static StatusOr<Wal> open(const std::string& dir, std::uint64_t valid_bytes,
                            Options options = Options());

  /// Reads header, snapshot and records for recovery; tolerates one
  /// torn trailing record (see file comment).
  static StatusOr<WalRecovery> load(const std::string& dir);

  Wal(Wal&& other) noexcept;
  Wal& operator=(Wal&& other) noexcept;
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;
  ~Wal();

  /// Group commit: appends `records` (ascending sequences) with one
  /// write and, by default, one fsync before returning — the
  /// append-before-apply barrier for the whole group. On failure the
  /// caller must apply none of them (see the known gap above).
  Status append(const std::vector<WalRecord>& records);

  /// The one-record group.
  Status append(std::uint64_t sequence, const Event& event);

  /// Atomically replaces `snapshot.json` (see replace_file).
  Status write_snapshot(const WalSnapshot& snapshot);

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  Wal(std::string dir, int fd, Options options)
      : dir_(std::move(dir)), fd_(fd), options_(options) {}

  std::string dir_;
  int fd_ = -1;  ///< wal.log, O_APPEND
  Options options_;
};

/// Atomically replaces `<dir>/<name>` with `bytes`: writes
/// `<name>.tmp`, fsyncs it, renames it over `<name>`, then fsyncs `dir`
/// so the rename, and every entry created in `dir` before it, is
/// durable. With `fsync` off both fsyncs are skipped; the rename still
/// keeps readers from seeing a partial file.
Status replace_file(const std::string& dir, const std::string& name,
                    std::string_view bytes, bool fsync);

}  // namespace mfa::service
