// Shared plumbing of the end-to-end benchmark: timing and percentile
// helpers, the outcome-log comparison, a keep-alive HTTP connection, the
// mfallocd child process, the metric report, and the workload specs read
// from e2ebench/workloads.json.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "net/http.hpp"
#include "scenario/trace.hpp"
#include "support/status.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- Statistics -----------------------------------------------------------

/// Nearest-rank percentile of `values` (q in [0, 1]); 0 for no samples.
double percentile(std::vector<double> values, double q);

/// Median and p99 of one sample set, with its size.
struct Summary {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t n = 0;
};
Summary summarize(const std::vector<double>& values);

double mean(const std::vector<double>& values);

/// Timings grouped into windows of a run (serve periods, sweep passes).
/// The windowed percentile is the median over the non-empty windows of
/// each window's percentile, so a host disturbance that covers fewer than
/// half of the windows does not move it.
class WindowedSamples {
 public:
  void add(std::size_t window, double value);
  [[nodiscard]] double windowed(double q) const;
  [[nodiscard]] std::vector<double> pooled() const;
  [[nodiscard]] std::size_t size() const;

 private:
  std::vector<std::vector<double>> windows_;
};

/// part / whole, 0 when whole is 0.
double share(std::uint64_t part, std::uint64_t whole);

/// Stable FNV-1a 64 digest of `text`, as 16 hex digits.
std::string digest_hex(const std::string& text);

// ---- Outcome comparison ---------------------------------------------------

/// A wire outcome (one element of a POST reply's "outcomes") re-serialized
/// without its wall-clock "latency_ms" member: the deterministic slice, byte-
/// comparable with io::to_json(EventOutcome).dump().
std::string deterministic_outcome(const mfa::io::Json& wire_outcome);

/// Index of the first line where `got` and `want` differ, or -1 when they
/// are identical (a length mismatch differs at the shorter length).
long first_mismatch(const std::vector<std::string>& got,
                    const std::vector<std::string>& want);

// ---- HTTP over one keep-alive connection ----------------------------------

class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Connects to 127.0.0.1:port with TCP_NODELAY.
  static mfa::StatusOr<Connection> open(std::uint16_t port);

  /// Sends `request` (formatted bytes) and reads one whole response.
  mfa::StatusOr<mfa::net::HttpResponse> exchange(const std::string& request);

 private:
  explicit Connection(int fd) : fd_(fd) {}
  int fd_ = -1;
};

// ---- The daemon under test ------------------------------------------------

class Daemon {
 public:
  /// Starts `binary args...` with stdout on a pipe and waits for its
  /// "mfallocd listening on <port>" line. The child is killed if this
  /// process dies first.
  static mfa::StatusOr<std::unique_ptr<Daemon>> spawn(
      const std::string& binary, const std::vector<std::string>& args);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// VmHWM of the child in MiB (0 when unreadable).
  [[nodiscard]] double peak_rss_mb() const;
  /// SIGTERM, then SIGKILL after a grace period; always reaps the child.
  void stop();

 private:
  Daemon() = default;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// VmHWM of `pid` ("self" when 0) in MiB, 0 when unreadable.
double peak_rss_mb_of(pid_t pid);

/// Host CPU ticks from the first line of /proc/stat: all of them, and the
/// ones stolen by the hypervisor for other guests.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTicks cpu_ticks();
/// Share of the ticks between `a` and `b` that were stolen: how much of a
/// run the host took away (0 when /proc/stat is unreadable).
double steal_share(const CpuTicks& a, const CpuTicks& b);

// ---- Report ---------------------------------------------------------------

/// Every metric a run measured, printed as a human table; the contract's
/// result line picks the names listed in BENCHMARK.json.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  /// Adds name_p50 and name_p90 (windowed) and name_p99 (pooled: a
  /// window is too short for it).
  void add_windowed(const std::string& name, const WindowedSamples& samples,
                    const std::string& unit);
  void note(const std::string& line) { notes_.push_back(line); }

  void print_table() const;

  /// The last stdout line: {"correct","attempted","failed","metrics"} with
  /// exactly `names`. kInvalid when a name was never measured.
  [[nodiscard]] mfa::StatusOr<std::string> result_line(
      bool correct, std::uint64_t attempted, std::uint64_t failed,
      const std::vector<std::string>& names) const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> notes_;
};

// ---- Workload specs (e2ebench/workloads.json) -----------------------------

// Every field is required in workloads.json; the loader has no defaults.

struct ServeSpec {
  mfa::scenario::TraceSpec trace;
  int batch = 0;                  ///< events per POST
  double offered_events_per_s = 0.0;
  int closed_events = 0;          ///< events sent closed-loop per period
  int warmup_events = 0;
  int traced_solve_events = 0;    ///< events the traced solver probes replay
  int exact_probe_problems = 0;
  std::int64_t exact_probe_nodes = 0;
};

struct SweepSpec {
  double fraction_lo = 0.0;
  double fraction_hi = 0.0;
  double fraction_step = 0.0;
  std::int64_t node_cap = 0;
  int max_workers = 0;
  int exact_probe_points = 0;  ///< traced run: grid points the exact probe solves
};

struct WorkloadSpec {
  std::string name;
  std::string kind;  ///< "serve" or "sweep"
  ServeSpec serve;
  SweepSpec sweep;
  /// For a sweep workload, the serve workload whose trace feeds the
  /// serving-layer probes of the traced run.
  std::string serving_probe;
};

mfa::StatusOr<WorkloadSpec> load_workload(const std::string& path,
                                          const std::string& name);
/// The same, from the parsed workloads.json document.
mfa::StatusOr<WorkloadSpec> parse_workload(const mfa::io::Json& doc,
                                           const std::string& name);

/// Metric names of one BENCHMARK.json section ("end_to_end"/"per_layer").
mfa::StatusOr<std::vector<std::string>> load_metric_names(
    const std::string& benchmark_json, const std::string& section);

/// Removes `path` recursively (errors ignored) and recreates it.
mfa::Status fresh_dir(const std::string& path);
void remove_tree(const std::string& path);

/// {"schema_version":1,"events":[events[begin..end)]} + "\n", as mfalloc_cli
/// post sends it.
std::string events_body(const std::vector<mfa::service::Event>& events,
                        std::size_t begin, std::size_t end);

}  // namespace e2e
