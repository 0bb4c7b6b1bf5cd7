// In-memory span recorder for the traced run.
//
// A span is one timed call from the benchmark's own code into a layer's
// public function: name, start, end, parent span and the event/request
// id it served. Spans nest per thread (a span opened while another is
// open on the same thread becomes its child), stay in memory while the
// run measures, and are written out once at the end. Self time is a
// span's duration minus its children's.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "support/status.hpp"

namespace e2e {

struct Span {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  long parent = -1;       ///< index into Tracer::spans(), -1 for a root
  std::uint64_t id = 0;   ///< event or request id
  std::uint32_t thread = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  /// A disabled tracer records nothing (the untraced comparison runs).
  explicit Tracer(bool enabled = true);

  /// Opens a span on the calling thread; returns its index (-1 when
  /// disabled). close() must be called on the same thread.
  long open(const char* name, std::uint64_t id);
  void close(long index);

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id = 0)
        : tracer_(tracer), index_(tracer.open(name, id)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    long index_;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Adds a finished span directly (tests, and spans timed elsewhere).
  void add(const Span& span);

  /// Durations of every closed span named `name`, divided by `ns_per_unit`
  /// (1e3 for µs, 1e6 for ms).
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              double ns_per_unit) const;
  /// Self times (duration minus the children's durations), same units.
  [[nodiscard]] std::vector<double> self_times(const std::string& name,
                                               double ns_per_unit) const;
  /// Duration of every closed span named `name`, keyed by its id.
  [[nodiscard]] std::map<std::uint64_t, double> by_id(
      const std::string& name, double ns_per_unit) const;

  /// One tab-separated line per span: name id start_ns end_ns parent
  /// thread (times relative to the tracer's creation).
  [[nodiscard]] mfa::Status write_tsv(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
  /// Innermost open span per thread.
  std::map<std::thread::id, long> open_;
  std::map<std::thread::id, std::uint32_t> thread_ids_;
};

}  // namespace e2e
