// Workload events consumed by the allocation service.
//
// The paper's setting is a shared multi-FPGA pool serving a *stream* of
// pipelined applications; this header is that stream's vocabulary. A
// pipeline arrives (AddPipeline), departs (RemovePipeline), changes
// priority (Reprioritize), or the pool itself changes shape
// (ResizePlatform). Events are plain data — the trace generator
// (scenario/trace.hpp) produces them, JSON I/O round-trips them, and
// AllocServer (service/alloc_server.hpp) consumes them — so this header
// depends only on core.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/problem.hpp"
#include "support/status.hpp"

namespace mfa::service {

/// One tenant of the shared pool: a pipelined application plus its
/// priority weight. The weight scales the pipeline's effective WCETs in
/// the composite problem, so a heavier pipeline pulls more CUs.
struct PipelineSpec {
  std::string id;  ///< unique among live pipelines
  core::Application app;
  double weight = 1.0;  ///< priority multiplier (> 0)
};

/// One workload change. Exactly the payload for its type is meaningful;
/// the rest stays default-constructed (and serializes away).
struct Event {
  enum class Type {
    kAddPipeline,     ///< `pipeline` joins the pool
    kRemovePipeline,  ///< pipeline `id` departs
    kReprioritize,    ///< pipeline `id` takes priority `weight`
    kResizePlatform,  ///< the pool becomes `platform`
  };

  Type type = Type::kAddPipeline;
  /// Trace timestamp (reporting only; replay runs as fast as it can).
  double time_ms = 0.0;

  PipelineSpec pipeline;    ///< kAddPipeline payload
  std::string id;           ///< kRemovePipeline / kReprioritize target
  double weight = 1.0;      ///< kReprioritize payload
  core::Platform platform;  ///< kResizePlatform payload

  static Event add(PipelineSpec spec, double time_ms = 0.0) {
    Event e;
    e.type = Type::kAddPipeline;
    e.time_ms = time_ms;
    e.pipeline = std::move(spec);
    return e;
  }
  static Event remove(std::string id, double time_ms = 0.0) {
    Event e;
    e.type = Type::kRemovePipeline;
    e.time_ms = time_ms;
    e.id = std::move(id);
    return e;
  }
  static Event reprioritize(std::string id, double weight,
                            double time_ms = 0.0) {
    Event e;
    e.type = Type::kReprioritize;
    e.time_ms = time_ms;
    e.id = std::move(id);
    e.weight = weight;
    return e;
  }
  static Event resize(core::Platform platform, double time_ms = 0.0) {
    Event e;
    e.type = Type::kResizePlatform;
    e.time_ms = time_ms;
    e.platform = std::move(platform);
    return e;
  }
};

/// Delta class an event applied to the composite problem (see
/// service/composite.hpp): numeric-only deltas keep the composite's
/// kernel set intact and are applied in place, without allocating.
enum class CompositeDelta {
  kNone,          ///< no mutation reached the composite
  kCoefficients,  ///< numeric coefficients only (reprioritize)
  kRhs,           ///< platform capacities only (resize)
  kStructural,    ///< kernel set changed (add/remove)
};

/// Stable text name ("none", "coefficients", "rhs", "structural").
inline const char* to_string(CompositeDelta delta) {
  switch (delta) {
    case CompositeDelta::kNone:
      return "none";
    case CompositeDelta::kCoefficients:
      return "coefficients";
    case CompositeDelta::kRhs:
      return "rhs";
    case CompositeDelta::kStructural:
      return "structural";
  }
  return "unknown";
}

/// Stable text name of an event type ("add", "remove", "reprioritize",
/// "resize") — used by logs and the JSON trace format. Defined here so
/// the io layer can serialize events without linking the server TU.
inline const char* to_string(Event::Type type) {
  switch (type) {
    case Event::Type::kAddPipeline:
      return "add";
    case Event::Type::kRemovePipeline:
      return "remove";
    case Event::Type::kReprioritize:
      return "reprioritize";
    case Event::Type::kResizePlatform:
      return "resize";
  }
  return "unknown";
}

/// The solve half of an event's outcome: what the re-solve produced.
struct SolveCounters {
  double ii = 0.0;    ///< incumbent II after the event (ms)
  double phi = 0.0;   ///< incumbent spreading after the event
  double goal = 0.0;  ///< incumbent α·II + β·φ after the event
  /// Discretized CU totals of the composite allocation, in composite
  /// kernel order (empty when there is no incumbent).
  std::vector<int> totals;
  std::int64_t nodes = 0;  ///< Σ nodes across portfolio lanes
};

/// The migration half of an event's outcome: what the accepted
/// allocation moved relative to the previous one (the occupancy
/// tracker's records — see service/occupancy.hpp). CUs are "moved" when
/// the previous placement had them on an FPGA where the new one does
/// not (torn down; newly added CUs are free). A pipeline is "disturbed"
/// when its placement rows changed at all. The event's own target is
/// exempt from both counters — its churn is the event's purpose, and
/// the packing-search budgets exempt its group the same way, so with
/// budgets (km, kd) every accepted event satisfies cus_moved <= km and
/// pipelines_disturbed <= kd unless budget_exceeded is set.
struct AllocationDiff {
  bool computed = false;  ///< a reference placement existed
  int cus_moved = 0;
  int pipelines_disturbed = 0;
  /// goal(accepted) − goal(unconstrained optimum) ≥ 0: what stability
  /// cost this event (0 when the unconstrained solve was accepted).
  double goal_regret = 0.0;
  /// The accepted allocation came from the migration-aware repack.
  bool stability_applied = false;
  /// No in-budget candidate existed; the unconstrained allocation was
  /// accepted over budget.
  bool budget_exceeded = false;
};

/// What the server reports for one processed event: the event envelope,
/// the solve outputs, the composite delta class and the migration diff. Every field except `seconds` is deterministic for a
/// fixed trace and configuration — the replay log the CLI
/// writes (and CI diffs) contains exactly those fields; `seconds` is
/// wall clock and reported separately. (The JSON encoding is a flat key
/// sequence with "diff" appended; see io/serialize.cpp.)
struct EventOutcome {
  std::uint64_t sequence = 0;  ///< position in the server's event order
  Event::Type type = Event::Type::kAddPipeline;
  std::string id;  ///< affected pipeline id (empty for resize)
  Status status;   ///< event application (e.g. unknown id → kInvalid)
  Status solve_status;  ///< re-solve outcome (ok for an empty pool)
  std::size_t active_pipelines = 0;  ///< live pipelines after the event
  SolveCounters solve;
  /// Delta class the event applied to the live composite problem
  /// (service/composite.hpp). It depends only on the event stream, so it
  /// is part of the deterministic replay log.
  CompositeDelta delta = CompositeDelta::kNone;
  AllocationDiff diff;
  /// Wall-clock event latency: the append + fsync of the WAL group the
  /// event was committed in, plus the event's own apply (delta,
  /// re-solve, snapshot). Not in the replay log.
  double seconds = 0.0;
};

}  // namespace mfa::service
