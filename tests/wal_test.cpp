// WAL + crash-recovery coverage: log/snapshot round-trips, torn-tail
// and torn-group tolerance, corruption detection, and the headline
// guarantee — a server recovered from its WAL (including after a real
// SIGKILL) is byte-identical to one that never crashed.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "scenario/trace.hpp"
#include "service/alloc_server.hpp"
#include "service/wal.hpp"
#include "testutil.hpp"

namespace mfa::service {
namespace {

using test::TempDir;

scenario::Trace small_trace(int events, std::uint64_t seed = 20190702) {
  scenario::TraceSpec spec;
  spec.num_events = events;
  spec.num_fpgas = 3;
  spec.max_live_pipelines = 4;
  spec.max_kernels = 3;
  return scenario::generate_trace(spec, seed);
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The deterministic solve outputs of an outcome (cache counters are
/// excluded on purpose: a snapshot-spliced recovery rebuilds the caches
/// from the tail only, which is transparent to results but not to
/// hit/miss counts).
void expect_solve_eq(const EventOutcome& a, const EventOutcome& b) {
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.status.code(), b.status.code());
  EXPECT_EQ(a.solve_status.code(), b.solve_status.code());
  EXPECT_EQ(a.active_pipelines, b.active_pipelines);
  EXPECT_DOUBLE_EQ(a.solve.ii, b.solve.ii);
  EXPECT_DOUBLE_EQ(a.solve.phi, b.solve.phi);
  EXPECT_DOUBLE_EQ(a.solve.goal, b.solve.goal);
  EXPECT_EQ(a.solve.totals, b.solve.totals);
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
  for (const EventOutcome& outcome : server.log()) {
    out.push_back(io::to_json(outcome).dump());
  }
  return out;
}

TEST(Wal, AppendLoadRoundTrip) {
  const TempDir dir("roundtrip");
  const scenario::Trace trace = small_trace(6);
  auto wal = Wal::create(dir.path, trace.platform);
  ASSERT_TRUE(wal.is_ok()) << wal.status().to_string();
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    ASSERT_TRUE(wal.value().append(i, trace.events[i]).is_ok());
  }

  auto recovery = Wal::load(dir.path);
  ASSERT_TRUE(recovery.is_ok()) << recovery.status().to_string();
  EXPECT_EQ(recovery.value().initial_platform.num_fpgas,
            trace.platform.num_fpgas);
  EXPECT_FALSE(recovery.value().snapshot.has_value());
  EXPECT_EQ(recovery.value().next_sequence, trace.events.size());
  ASSERT_EQ(recovery.value().tail.size(), trace.events.size());
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const WalRecord& record = recovery.value().tail[i];
    EXPECT_EQ(record.sequence, i);
    EXPECT_EQ(record.event.type, trace.events[i].type);
    EXPECT_EQ(io::to_json(record.event).dump(),
              io::to_json(trace.events[i]).dump());
  }
}

TEST(Wal, TornTrailingRecordIsDropped) {
  const TempDir dir("torn");
  const scenario::Trace trace = small_trace(4);
  {
    auto wal = Wal::create(dir.path, trace.platform);
    ASSERT_TRUE(wal.is_ok());
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      ASSERT_TRUE(wal.value().append(i, trace.events[i]).is_ok());
    }
  }
  // Simulate a crash mid-append: chop the last record in half (no
  // trailing newline).
  const std::string log_path = dir.path + "/wal.log";
  std::string bytes = read_all(log_path);
  ASSERT_GT(bytes.size(), 20u);
  bytes.resize(bytes.size() - 17);
  {
    std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto recovery = Wal::load(dir.path);
  ASSERT_TRUE(recovery.is_ok()) << recovery.status().to_string();
  EXPECT_EQ(recovery.value().tail.size(), trace.events.size() - 1);
  EXPECT_EQ(recovery.value().next_sequence, trace.events.size() - 1);
}

TEST(Wal, TornGroupKeepsEveryCompleteRecord) {
  // A group commit is one write, and a crash can cut it at any byte.
  // Record 0 is committed alone, records 1.. as one group; the log is
  // then truncated at every byte offset inside that group.
  const TempDir dir("torngroup");
  const scenario::Trace trace = small_trace(10);
  const std::string log_path = dir.path + "/wal.log";
  std::size_t group_start = 0;
  {
    auto wal = Wal::create(dir.path, trace.platform);
    ASSERT_TRUE(wal.is_ok()) << wal.status().to_string();
    ASSERT_TRUE(wal.value().append(0, trace.events[0]).is_ok());
    group_start = read_all(log_path).size();
    std::vector<WalRecord> group;
    for (std::size_t i = 1; i < trace.events.size(); ++i) {
      group.push_back(WalRecord{i, trace.events[i]});
    }
    ASSERT_TRUE(wal.value().append(group).is_ok());
  }
  const std::string bytes = read_all(log_path);
  // Record i is the line [starts[i], ends[i]), terminated by '\n'.
  std::vector<std::size_t> starts;
  std::vector<std::size_t> ends;
  for (std::size_t pos = bytes.find('\n') + 1; pos < bytes.size();) {
    const std::size_t newline = bytes.find('\n', pos);
    ASSERT_NE(newline, std::string::npos);
    starts.push_back(pos);
    ends.push_back(newline);
    pos = newline + 1;
  }
  ASSERT_EQ(starts.size(), trace.events.size());
  ASSERT_EQ(starts[1], group_start);
  std::vector<std::string> events;
  for (const Event& event : trace.events) {
    events.push_back(io::to_json(event).dump());
  }
  const auto cut_at = [&](std::size_t offset) {
    std::ofstream(log_path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, offset);
  };
  // Records whose JSON lies wholly before the cut. A record cut just
  // before its newline still parses, so it counts as complete.
  const auto complete_before = [&ends](std::size_t offset) {
    return static_cast<std::size_t>(
        std::upper_bound(ends.begin(), ends.end(), offset) - ends.begin());
  };

  for (std::size_t cut = group_start; cut <= bytes.size(); ++cut) {
    cut_at(cut);
    const std::size_t complete = complete_before(cut);
    auto recovery = Wal::load(dir.path);
    ASSERT_TRUE(recovery.is_ok())
        << "cut at " << cut << ": " << recovery.status().to_string();
    const std::vector<WalRecord>& tail = recovery.value().tail;
    ASSERT_EQ(tail.size(), complete) << "cut at " << cut;
    EXPECT_EQ(recovery.value().next_sequence, complete) << "cut at " << cut;
    for (std::size_t i = 0; i < complete; ++i) {
      EXPECT_EQ(tail[i].sequence, i) << "cut at " << cut;
      EXPECT_EQ(io::to_json(tail[i].event).dump(), events[i])
          << "cut at " << cut;
    }
  }

  // Recovery from a cut at each record boundary and mid-way through
  // each record lands where an uninterrupted server fed the surviving
  // prefix does: same incumbent, same outcome log.
  std::vector<std::string> prefix_incumbent{""};
  std::vector<std::vector<std::string>> prefix_log{{}};
  {
    ServerOptions plain;
    plain.log_capacity = 0;
    AllocServer uninterrupted(trace.platform, plain);
    for (const Event& event : trace.events) {
      uninterrupted.apply(event);
      prefix_incumbent.push_back(incumbent_json(uninterrupted));
      prefix_log.push_back(outcome_log(uninterrupted));
    }
  }
  std::vector<std::size_t> recovery_cuts;
  for (std::size_t i = 1; i < starts.size(); ++i) {
    recovery_cuts.push_back(starts[i]);
    recovery_cuts.push_back(starts[i] + (ends[i] - starts[i]) / 2);
  }
  recovery_cuts.push_back(bytes.size());
  for (const std::size_t cut : recovery_cuts) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    cut_at(cut);
    const std::size_t complete = complete_before(cut);
    ServerOptions options;
    options.wal_dir = dir.path;
    options.log_capacity = 0;
    auto recovered = AllocServer::recover(options);
    ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
    recovered.value()->stop();
    EXPECT_EQ(recovered.value()->stats().sequence, complete);
    EXPECT_EQ(incumbent_json(*recovered.value()), prefix_incumbent[complete]);
    EXPECT_EQ(outcome_log(*recovered.value()), prefix_log[complete]);
  }
}

TEST(Wal, RecoversAgainAfterTornTail) {
  // A crash tears the last record. Recovery drops it, and the client
  // resends that event and sends the next one. Before appending them,
  // recovery must cut the torn bytes off; otherwise the first new
  // record is glued onto the partial line and the *next* load() rejects
  // the log, losing every event acknowledged since. Cutting one byte
  // leaves the last record whole but without its newline: it is kept,
  // and recovery must end its line instead.
  const scenario::Trace trace = small_trace(12, 7);
  const std::size_t logged = 10;  // events in the log before the crash
  for (const std::size_t cut : {std::size_t{7}, std::size_t{1}}) {
    SCOPED_TRACE("cut " + std::to_string(cut) + " bytes");
    const TempDir dir("tornagain");
    const TempDir dir_full("tornfull");
    ServerOptions options;
    options.wal_dir = dir.path;
    {
      auto server = AllocServer::open(trace.platform, options);
      ASSERT_TRUE(server.is_ok()) << server.status().to_string();
      for (std::size_t i = 0; i < logged; ++i) {
        ASSERT_TRUE(server.value()->apply(trace.events[i]).status.is_ok());
      }
      server.value()->stop();
    }
    const std::string log_path = dir.path + "/wal.log";
    const std::string bytes = read_all(log_path);
    std::ofstream(log_path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, bytes.size() - cut);
    const std::size_t kept = cut == 1 ? logged : logged - 1;

    {
      auto recovered = AllocServer::recover(options);
      ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
      EXPECT_EQ(recovered.value()->stats().sequence, kept);
      for (std::size_t i = kept; i < kept + 2; ++i) {
        EXPECT_TRUE(recovered.value()->apply(trace.events[i]).status.is_ok());
      }
      recovered.value()->stop();
    }

    // The repaired log loads whole, and it is byte for byte the log of a
    // server that never crashed.
    auto loaded = Wal::load(dir.path);
    ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
    EXPECT_EQ(loaded.value().next_sequence, kept + 2);
    EXPECT_EQ(loaded.value().valid_bytes, read_all(log_path).size());
    ServerOptions full_options;
    full_options.wal_dir = dir_full.path;
    auto uninterrupted = AllocServer::open(trace.platform, full_options);
    ASSERT_TRUE(uninterrupted.is_ok());
    for (std::size_t i = 0; i < kept + 2; ++i) {
      uninterrupted.value()->apply(trace.events[i]);
    }
    uninterrupted.value()->stop();
    EXPECT_EQ(read_all(log_path), read_all(dir_full.path + "/wal.log"));

    auto again = AllocServer::recover(options);
    ASSERT_TRUE(again.is_ok()) << again.status().to_string();
    again.value()->stop();
    EXPECT_EQ(again.value()->stats().sequence, kept + 2);
    EXPECT_EQ(incumbent_json(*again.value()),
              incumbent_json(*uninterrupted.value()));
  }
}

TEST(Wal, CorruptMiddleRecordIsRejected) {
  const TempDir dir("corrupt");
  const scenario::Trace trace = small_trace(4);
  {
    auto wal = Wal::create(dir.path, trace.platform);
    ASSERT_TRUE(wal.is_ok());
    for (std::size_t i = 0; i < trace.events.size(); ++i) {
      ASSERT_TRUE(wal.value().append(i, trace.events[i]).is_ok());
    }
  }
  const std::string log_path = dir.path + "/wal.log";
  std::string bytes = read_all(log_path);
  const std::size_t second_line = bytes.find('\n', bytes.find('\n') + 1);
  ASSERT_NE(second_line, std::string::npos);
  bytes.insert(second_line + 1, "this is not json\n");
  {
    std::ofstream out(log_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto recovery = Wal::load(dir.path);
  EXPECT_FALSE(recovery.is_ok());
}

TEST(Wal, LoadMissingDirectoryFails) {
  auto recovery = Wal::load("/nonexistent/mfa/wal/dir");
  EXPECT_FALSE(recovery.is_ok());
}

TEST(Wal, SnapshotSplicesTheTail) {
  const TempDir dir("snapshot");
  const scenario::Trace trace = small_trace(10);
  ServerOptions options;
  options.wal_dir = dir.path;
  options.snapshot_every = 4;
  {
    auto server = AllocServer::open(trace.platform, options);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    for (const Event& event : trace.events) {
      server.value()->apply(event);
    }
    EXPECT_GT(server.value()->stats().snapshots, 0u);
    server.value()->stop();
  }
  auto recovery = Wal::load(dir.path);
  ASSERT_TRUE(recovery.is_ok()) << recovery.status().to_string();
  ASSERT_TRUE(recovery.value().snapshot.has_value());
  const WalSnapshot& snapshot = *recovery.value().snapshot;
  EXPECT_EQ(snapshot.sequence % 4, 0u);
  EXPECT_GT(snapshot.sequence, 0u);
  // The tail starts at the snapshot point, not at zero.
  ASSERT_FALSE(recovery.value().tail.empty());
  EXPECT_EQ(recovery.value().tail.front().sequence, snapshot.sequence);
  EXPECT_EQ(recovery.value().next_sequence, trace.events.size());

  // A server recovered through the snapshot splice matches the
  // uninterrupted run's incumbent.
  ServerOptions plain;
  AllocServer uninterrupted(trace.platform, plain);
  for (const Event& event : trace.events) uninterrupted.apply(event);
  uninterrupted.stop();

  ServerOptions recover_options = options;
  auto recovered = AllocServer::recover(recover_options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  EXPECT_EQ(incumbent_json(*recovered.value()),
            incumbent_json(uninterrupted));
  EXPECT_EQ(recovered.value()->active_pipelines(),
            uninterrupted.active_pipelines());
  EXPECT_EQ(recovered.value()->stats().sequence, trace.events.size());
  recovered.value()->stop();
}

TEST(Wal, RecoveredServerMatchesUninterruptedRun) {
  const TempDir dir_full("full");
  const TempDir dir_crash("crash");
  const scenario::Trace trace = small_trace(12);
  const std::size_t crash_at = 7;

  ServerOptions options;  // snapshot_every default: no snapshot in 12
  options.wal_dir = dir_full.path;
  std::vector<EventOutcome> full_log;
  std::string full_incumbent;
  {
    auto server = AllocServer::open(trace.platform, options);
    ASSERT_TRUE(server.is_ok());
    for (const Event& event : trace.events) {
      full_log.push_back(server.value()->apply(event));
    }
    full_incumbent = incumbent_json(*server.value());
    server.value()->stop();
  }

  // "Crash" after crash_at events (clean process, dirty server state is
  // simply abandoned along with the object), then recover and finish.
  options.wal_dir = dir_crash.path;
  {
    auto server = AllocServer::open(trace.platform, options);
    ASSERT_TRUE(server.is_ok());
    for (std::size_t i = 0; i < crash_at; ++i) {
      server.value()->apply(trace.events[i]);
    }
    server.value()->stop();
  }
  auto recovered = AllocServer::recover(options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  std::vector<EventOutcome> tail_log;
  for (std::size_t i = crash_at; i < trace.events.size(); ++i) {
    tail_log.push_back(recovered.value()->apply(trace.events[i]));
  }
  EXPECT_EQ(incumbent_json(*recovered.value()), full_incumbent);
  for (std::size_t i = 0; i < tail_log.size(); ++i) {
    SCOPED_TRACE("post-recovery event " + std::to_string(i));
    expect_solve_eq(tail_log[i], full_log[crash_at + i]);
  }
  recovered.value()->stop();

  // Both runs logged the same history, byte for byte.
  EXPECT_EQ(read_all(dir_full.path + "/wal.log"),
            read_all(dir_crash.path + "/wal.log"));
}

TEST(Wal, StabilityDiffsSurviveRecovery) {
  // The occupancy ledger is rebuilt inside resolve_workload, so a
  // snapshot-spliced recovery under migration budgets must reproduce
  // the uninterrupted run's diffs (and repack decisions) exactly.
  const TempDir dir("stab");
  const scenario::Trace trace = small_trace(14);
  const std::size_t crash_at = 9;

  ServerOptions options;
  options.snapshot_every = 4;  // force the snapshot splice path
  options.max_moves = 2;
  options.max_disturbed = 1;
  std::vector<EventOutcome> full_log;
  std::string full_incumbent;
  {
    AllocServer server(trace.platform, options);
    for (const Event& event : trace.events) {
      full_log.push_back(server.apply(event));
    }
    full_incumbent = incumbent_json(server);
    server.stop();
  }

  options.wal_dir = dir.path;
  {
    auto server = AllocServer::open(trace.platform, options);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    for (std::size_t i = 0; i < crash_at; ++i) {
      server.value()->apply(trace.events[i]);
    }
    server.value()->stop();
  }
  auto recovered = AllocServer::recover(options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  // The rebuilt ledger matches the live one: same placements, same CUs.
  for (std::size_t i = crash_at; i < trace.events.size(); ++i) {
    SCOPED_TRACE("post-recovery event " + std::to_string(i));
    const EventOutcome replayed =
        recovered.value()->apply(trace.events[i]);
    const EventOutcome& expected = full_log[i];
    expect_solve_eq(replayed, expected);
    EXPECT_EQ(replayed.diff.computed, expected.diff.computed);
    EXPECT_EQ(replayed.diff.cus_moved, expected.diff.cus_moved);
    EXPECT_EQ(replayed.diff.pipelines_disturbed,
              expected.diff.pipelines_disturbed);
    EXPECT_DOUBLE_EQ(replayed.diff.goal_regret, expected.diff.goal_regret);
    EXPECT_EQ(replayed.diff.stability_applied,
              expected.diff.stability_applied);
    EXPECT_EQ(replayed.diff.budget_exceeded, expected.diff.budget_exceeded);
  }
  EXPECT_EQ(incumbent_json(*recovered.value()), full_incumbent);
  recovered.value()->stop();
}

TEST(Wal, KillNineRecoveryIsByteIdentical) {
  const TempDir dir_full("k9full");
  const TempDir dir_crash("k9crash");
  const scenario::Trace trace = small_trace(10);
  const std::size_t crash_at = 6;

  ServerOptions options;
  options.wal_dir = dir_full.path;
  std::vector<EventOutcome> full_log;
  std::string full_incumbent;
  {
    auto server = AllocServer::open(trace.platform, options);
    ASSERT_TRUE(server.is_ok());
    for (const Event& event : trace.events) {
      full_log.push_back(server.value()->apply(event));
    }
    full_incumbent = incumbent_json(*server.value());
    server.value()->stop();
  }

  // Real crash: the child applies crash_at events (each acknowledged,
  // so each fsync'd by append-before-apply) and SIGKILLs itself — no
  // destructors, no flush, exactly a power-cut.
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ServerOptions child_options;
    child_options.wal_dir = dir_crash.path;
    auto server = AllocServer::open(trace.platform, child_options);
    if (!server.is_ok()) ::_exit(3);
    for (std::size_t i = 0; i < crash_at; ++i) {
      server.value()->apply(trace.events[i]);
    }
    ::kill(::getpid(), SIGKILL);
    ::_exit(4);  // unreachable
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  ServerOptions recover_options;
  recover_options.wal_dir = dir_crash.path;
  auto recovered = AllocServer::recover(recover_options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  EXPECT_EQ(recovered.value()->stats().sequence, crash_at);
  std::vector<EventOutcome> tail_log;
  for (std::size_t i = crash_at; i < trace.events.size(); ++i) {
    tail_log.push_back(recovered.value()->apply(trace.events[i]));
  }
  EXPECT_EQ(incumbent_json(*recovered.value()), full_incumbent);
  for (std::size_t i = 0; i < tail_log.size(); ++i) {
    SCOPED_TRACE("post-recovery event " + std::to_string(i));
    expect_solve_eq(tail_log[i], full_log[crash_at + i]);
  }
  recovered.value()->stop();
  EXPECT_EQ(read_all(dir_full.path + "/wal.log"),
            read_all(dir_crash.path + "/wal.log"));
}

TEST(Wal, RecoversAcrossAnUnsolvableSnapshotPoint) {
  // Two 60 %-DSP pipelines cannot share one FPGA: the second add fails
  // its re-solve and the server keeps serving p0's stale incumbent. The
  // snapshot point falls on that failed event, and recovery must still
  // rebuild the stale incumbent and continue exactly like a server that
  // never crashed.
  const TempDir dir("unsolvable");
  const core::Platform platform{"one", 1};
  const auto pipeline = [](const std::string& id) {
    PipelineSpec spec;
    spec.id = id;
    spec.app.name = id;
    spec.app.kernels = {test::make_kernel("conv", 10.0, 10.0, 60.0, 5.0)};
    return spec;
  };
  const std::vector<Event> events = {Event::add(pipeline("p0")),
                                     Event::add(pipeline("p1")),
                                     Event::remove("p1")};
  const std::size_t crash_at = 2;

  ServerOptions options;
  options.snapshot_every = 2;
  options.log_capacity = 0;
  AllocServer uninterrupted(platform, options);
  for (const Event& event : events) uninterrupted.apply(event);
  uninterrupted.stop();
  const std::vector<EventOutcome> full_log = uninterrupted.log();
  ASSERT_EQ(full_log.size(), events.size());
  ASSERT_TRUE(full_log[0].solve_status.is_ok());
  ASSERT_FALSE(full_log[1].solve_status.is_ok());

  options.wal_dir = dir.path;
  {
    auto server = AllocServer::open(platform, options);
    ASSERT_TRUE(server.is_ok()) << server.status().to_string();
    for (std::size_t i = 0; i < crash_at; ++i) {
      server.value()->apply(events[i]);
    }
    server.value()->stop();
  }
  auto recovered = AllocServer::recover(options);
  ASSERT_TRUE(recovered.is_ok()) << recovered.status().to_string();
  for (std::size_t i = crash_at; i < events.size(); ++i) {
    recovered.value()->apply(events[i]);
  }
  recovered.value()->stop();

  const std::vector<EventOutcome> recovered_log = recovered.value()->log();
  ASSERT_EQ(recovered_log.size(), full_log.size());
  for (std::size_t i = 0; i < full_log.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    expect_solve_eq(recovered_log[i], full_log[i]);
  }
  EXPECT_EQ(incumbent_json(*recovered.value()), incumbent_json(uninterrupted));
}

TEST(Wal, RecoverRejectsAnInvalidPlatform) {
  // Recovery admits the logged pool the way open() does: a bad platform
  // in the log header or the snapshot is a typed kInvalid, not a
  // server that rejects every later event.
  const TempDir dir("invalid_recovery");
  ServerOptions options;
  options.wal_dir = dir.path;
  core::Platform negative_pool{"negative", 2};
  negative_pool.capacity[core::Resource::kDsp] = -5.0;

  const auto expect_invalid = [&options](const std::string& message) {
    auto recovered = AllocServer::recover(options);
    ASSERT_FALSE(recovered.is_ok());
    EXPECT_EQ(recovered.status().code(), Code::kInvalid);
    EXPECT_EQ(recovered.status().message(), message);
  };
  ASSERT_TRUE(Wal::create(dir.path, negative_pool).is_ok());
  expect_invalid("wal header: platform capacities must be non-negative");

  StatusOr<Wal> wal = Wal::create(dir.path, core::Platform{"pool", 2});
  ASSERT_TRUE(wal.is_ok());
  const WalSnapshot snapshot{0, negative_pool, {}, {}};
  ASSERT_TRUE(wal.value().write_snapshot(snapshot).is_ok());
  expect_invalid("wal snapshot: platform capacities must be non-negative");
}

TEST(Wal, RecoverWithoutWalDirFails) {
  ServerOptions options;
  auto recovered = AllocServer::recover(options);
  EXPECT_FALSE(recovered.is_ok());
}

}  // namespace
}  // namespace mfa::service
