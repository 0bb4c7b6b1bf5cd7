// Serving-path benchmark: the default per-event re-solve, and the
// price of durability.
//
// Replays one seeded arrival trace (scenario/trace.hpp) through an
// AllocServer on the default configuration (ServerOptions{}): every
// event's composite is re-solved from scratch by one GP+A lane.
//
// Reported per replay: wall-clock replay time, mean/p50/p95/p99/max
// per-event latency, B&B nodes and the warm-path allocation count.
//
// A second replay runs the same configuration with a write-ahead log
// (fsync on) to price durability: the WAL column reports the same
// latency metrics, so the append-before-apply overhead is visible per
// event rather than hidden in the daemon.
//
// `--check` exits non-zero when a gate fails:
//   * the WAL replay's deterministic event log must be byte-identical
//     to the plain replay — durability is observability-free (the
//     property crash recovery rides on), and
//   * zero heap allocations inside warm delta application — the runtime
//     half of the zero-allocation warm path (support/alloc_count.hpp).
//     Enforced when the counting interposer is linked
//     (-DMFA_COUNT_ALLOC=ON); skipped with a notice otherwise.
// `--smoke` shrinks the trace for CI wiring checks.
//
// With MFA_BENCH_OUT set to a directory, the measurements are written
// there as BENCH_service_churn.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "scenario/trace.hpp"
#include "service/alloc_server.hpp"
#include "support/alloc_count.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct ReplayStats {
  std::int64_t nodes = 0;   ///< B&B nodes across all events
  double seconds = 0.0;     ///< wall-clock replay time
  double mean_event_ms = 0.0;
  double p50_event_ms = 0.0;
  double p95_event_ms = 0.0;
  double p99_event_ms = 0.0;
  double max_event_ms = 0.0;
  /// Heap allocations inside warm delta application, summed over the
  /// replay's reprioritize/resize events (0 unless the counting
  /// interposer is linked; --check gates it at zero when it is).
  std::uint64_t warm_allocs = 0;
  /// Concatenated deterministic outcome JSON, one line per event — the
  /// WAL determinism gate byte-compares these across replays.
  std::string log_digest;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// One full trace replay. A non-empty `wal_dir` runs the durable path
/// (AllocServer::open, fsync'd append-before-apply) so the WAL column
/// prices exactly what the daemon pays.
ReplayStats replay(const mfa::scenario::Trace& trace,
                   const std::string& wal_dir = "") {
  mfa::service::ServerOptions options;
  options.wal_dir = wal_dir;

  ReplayStats stats;
  const auto t0 = Clock::now();
  auto opened = mfa::service::AllocServer::open(trace.platform, options);
  if (!opened.is_ok()) {
    std::fprintf(stderr, "fatal: %s\n",
                 opened.status().to_string().c_str());
    std::exit(1);
  }
  mfa::service::AllocServer& server = *opened.value();
  std::vector<double> event_ms;
  event_ms.reserve(trace.events.size());
  for (const mfa::service::Event& event : trace.events) {
    const mfa::service::EventOutcome outcome = server.apply(event);
    stats.nodes += outcome.solve.nodes;
    stats.warm_allocs += outcome.warm_allocs;
    event_ms.push_back(outcome.seconds * 1e3);
    stats.log_digest += mfa::io::to_json(outcome).dump();
    stats.log_digest += '\n';
  }
  server.stop();
  stats.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  double total_ms = 0.0;
  for (double ms : event_ms) total_ms += ms;
  stats.mean_event_ms =
      event_ms.empty() ? 0.0 : total_ms / static_cast<double>(event_ms.size());
  stats.p50_event_ms = percentile(event_ms, 0.50);
  stats.p95_event_ms = percentile(event_ms, 0.95);
  stats.p99_event_ms = percentile(event_ms, 0.99);
  stats.max_event_ms =
      event_ms.empty() ? 0.0
                       : *std::max_element(event_ms.begin(), event_ms.end());
  return stats;
}

void write_json(const std::string& path, const mfa::io::Json& doc) {
  const mfa::Status st = mfa::io::write_file(path, doc.dump(2) + "\n");
  if (st.is_ok()) {
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "warning: %s\n", st.to_string().c_str());
  }
}

void emit_json(int events, const ReplayStats& plain, const ReplayStats& wal) {
  const char* dir = std::getenv("MFA_BENCH_OUT");
  if (dir == nullptr || *dir == '\0') return;
  mfa::io::Json doc = mfa::io::Json::object();
  doc.set("bench", mfa::io::Json::string("service_churn"));
  doc.set("events", mfa::io::Json::number(events));
  doc.set("seconds", mfa::io::Json::number(plain.seconds));
  doc.set("mean_event_ms", mfa::io::Json::number(plain.mean_event_ms));
  doc.set("p95_event_ms", mfa::io::Json::number(plain.p95_event_ms));
  doc.set("p99_event_ms", mfa::io::Json::number(plain.p99_event_ms));
  doc.set("max_event_ms", mfa::io::Json::number(plain.max_event_ms));
  doc.set("nodes", mfa::io::Json::number(static_cast<double>(plain.nodes)));
  // Durability pricing: same configuration, WAL on (fsync).
  doc.set("wal_seconds", mfa::io::Json::number(wal.seconds));
  doc.set("wal_mean_event_ms", mfa::io::Json::number(wal.mean_event_ms));
  doc.set("wal_p95_event_ms", mfa::io::Json::number(wal.p95_event_ms));
  doc.set("wal_overhead_ratio",
          mfa::io::Json::number(plain.mean_event_ms > 0.0
                                    ? wal.mean_event_ms / plain.mean_event_ms
                                    : 0.0));
  doc.set("wal_log_identical",
          mfa::io::Json::boolean(wal.log_digest == plain.log_digest));
  // The zero-allocation gate's inputs.
  doc.set("alloc_counting_linked",
          mfa::io::Json::boolean(mfa::alloc_counting_linked()));
  const std::uint64_t warm_allocs = plain.warm_allocs + wal.warm_allocs;
  doc.set("warm_allocs",
          mfa::io::Json::number(static_cast<double>(warm_allocs)));
  write_json(std::string(dir) + "/BENCH_service_churn.json", doc);
}

void print_table(const ReplayStats& plain, const ReplayStats& wal) {
  const auto row_i = [](const char* name, std::int64_t p, std::int64_t w) {
    std::printf("%-28s %14lld %14lld\n", name, static_cast<long long>(p),
                static_cast<long long>(w));
  };
  const auto row_f = [](const char* name, double p, double w) {
    std::printf("%-28s %14.3f %14.3f\n", name, p, w);
  };
  std::printf("%-28s %14s %14s\n", "metric", "default", "default+wal");
  row_i("B&B nodes", plain.nodes, wal.nodes);
  row_f("replay seconds", plain.seconds, wal.seconds);
  row_f("mean event latency (ms)", plain.mean_event_ms, wal.mean_event_ms);
  row_f("p50 event latency (ms)", plain.p50_event_ms, wal.p50_event_ms);
  row_f("p95 event latency (ms)", plain.p95_event_ms, wal.p95_event_ms);
  row_f("p99 event latency (ms)", plain.p99_event_ms, wal.p99_event_ms);
  row_f("max event latency (ms)", plain.max_event_ms, wal.max_event_ms);
  row_i("warm-path allocations", static_cast<std::int64_t>(plain.warm_allocs),
        static_cast<std::int64_t>(wal.warm_allocs));
}

}  // namespace

int main(int argc, char** argv) {
  int events = 400;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      events = 80;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events = std::atoi(argv[++i]);
      if (events <= 0) events = 1;
    }
  }

  mfa::scenario::TraceSpec spec;
  spec.num_events = events;
  const mfa::scenario::Trace trace =
      mfa::scenario::generate_trace(spec, /*seed=*/20190702);
  std::printf("service_churn: %d events, %d-FPGA pool (seed fixed)\n\n",
              events, trace.platform.num_fpgas);

  const ReplayStats plain = replay(trace);

  // Durable replay: same configuration plus a fsync'd WAL in a scratch
  // directory, removed afterwards.
  char wal_template[] = "/tmp/mfa_churn_wal_XXXXXX";
  const char* wal_dir = ::mkdtemp(wal_template);
  if (wal_dir == nullptr) {
    std::fprintf(stderr, "fatal: mkdtemp failed\n");
    return 1;
  }
  const ReplayStats wal = replay(trace, wal_dir);
  {
    std::error_code ec;
    std::filesystem::remove_all(wal_dir, ec);
  }

  print_table(plain, wal);
  const bool wal_identical = wal.log_digest == plain.log_digest;
  std::printf("\nheadline: mean event latency %.3f ms, B&B nodes %lld\n",
              plain.mean_event_ms, static_cast<long long>(plain.nodes));
  std::printf("durability: WAL replay %.2fx mean event latency, "
              "event log byte-identical: %s\n",
              plain.mean_event_ms > 0.0
                  ? wal.mean_event_ms / plain.mean_event_ms
                  : 0.0,
              wal_identical ? "yes" : "NO");
  emit_json(events, plain, wal);
  if (check) {
    int rc = 0;
    if (!wal_identical) {
      std::printf("FAIL: WAL-enabled replay produced a different event log "
                  "(durability must be byte-transparent)\n");
      rc = 1;
    }
    // Zero-allocation warm path: with the counting interposer linked
    // (-DMFA_COUNT_ALLOC=ON), no reprioritize/resize delta may allocate.
    // The static half is mfa_lint's suppression-free warm-path-alloc
    // rule; this is the runtime witness.
    if (mfa::alloc_counting_linked()) {
      const std::uint64_t total_warm_allocs =
          plain.warm_allocs + wal.warm_allocs;
      if (total_warm_allocs != 0) {
        std::printf("FAIL: warm deltas performed %llu heap allocations "
                    "(expected 0)\n",
                    static_cast<unsigned long long>(total_warm_allocs));
        rc = 1;
      }
    } else {
      std::printf("note: zero-allocation gate skipped — counting "
                  "interposer not linked (build with -DMFA_COUNT_ALLOC=ON "
                  "to enable it)\n");
    }
    return rc;
  }
  return 0;
}
