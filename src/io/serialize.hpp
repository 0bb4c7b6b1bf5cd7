// JSON (de)serialization of problem instances and allocations.
//
// The on-disk format is what examples/custom_app_json consumes — a
// self-contained problem description a user can write by hand:
//
// {
//   "application": {"name": "...", "kernels": [
//       {"name": "CONV1", "wcet_ms": 13.0, "bram": 13.07, "dsp": 21.24,
//        "lut": 0, "ff": 0, "bw": 1.3}, ...]},
//   "platform": {"name": "AWS F1", "fpgas": 8, "bw_capacity": 100,
//                "capacity": {"bram": 100, "dsp": 100, "lut": 100,
//                             "ff": 100}},
//   "resource_fraction": 0.75, "alpha": 1.0, "beta": 0.7
// }
//
// Heterogeneous platforms replace "capacity"/"bw_capacity" with a
// device-class list and a per-FPGA assignment (both required together):
//
//   "platform": {"name": "mixed", "fpgas": 3,
//                "classes": [
//                  {"name": "big", "bw_capacity": 100,
//                   "capacity": {"bram": 100, "dsp": 100, "lut": 100,
//                                "ff": 100}},
//                  {"name": "small", "bw_capacity": 60,
//                   "capacity": {"bram": 50, "dsp": 60, "lut": 50,
//                                "ff": 50}}],
//                "class_of": [0, 1, 1]}
//
// Absent optional fields take the struct defaults; one present with the
// wrong type ("weight": "heavy"), like any malformed input, is reported
// as Code::kInvalid naming the object and the field — parsing never
// aborts, whatever the bytes (tests/serialize_test.cpp carries a
// malformed-payload corpus enforcing exactly that).
//
// Versioning: every payload this header *writes* carries a top-level
// "schema_version" (currently 4). Readers accept every version from 1
// to the current one and, for the formats that predate versioning
// (problem, trace, allocation), a missing field — those parse as legacy
// v0 with unchanged semantics. Version 2 dropped the GP compilation
// counters (gp_compiles, gp_patches, model_hits, model_misses) from
// event outcomes and service stats; version 3 dropped "warm" (the
// server no longer seeds a re-solve from its incumbent) from event
// outcomes; version 4 dropped "relax_hits" (the server keeps no
// relaxation cache) from event outcomes and service stats. Every input
// format reads the same in all four versions.
// Formats born versioned (WAL records, wire-API bodies) require the
// field. An unknown or malformed version is a typed Code::kInvalid,
// never a guess.
// Service traces (the `gentrace` / `serve --trace` formats) are a
// platform plus an event list; each event carries exactly its payload:
//
//   {"platform": {...}, "events": [
//     {"type": "add", "time_ms": 12.5, "id": "p0", "weight": 1.3,
//      "application": {...}},
//     {"type": "reprioritize", "time_ms": 31.0, "id": "p0",
//      "weight": 0.7},
//     {"type": "resize", "time_ms": 40.0, "platform": {...}},
//     {"type": "remove", "time_ms": 55.1, "id": "p0"}]}
#pragma once

#include "core/allocation.hpp"
#include "core/problem.hpp"
#include "io/json.hpp"
#include "scenario/trace.hpp"
#include "service/event.hpp"
#include "service/occupancy.hpp"
#include "service/wal.hpp"

namespace mfa::io {

/// Version stamped into every payload written by this layer.
inline constexpr int kSchemaVersion = 4;

/// Validates `j`'s "schema_version" against kSchemaVersion. A missing
/// field is accepted as legacy v0 unless `required` (new formats);
/// anything else unsupported is kInvalid naming `ctx`.
Status check_schema_version(const Json& j, const char* ctx, bool required);

Json to_json(const core::Kernel& kernel);
Json to_json(const core::Application& app);
Json to_json(const core::DeviceClass& device_class);
Json to_json(const core::Platform& platform);
Json to_json(const core::Problem& problem);

/// Allocation → {"matrix": [[n_kf...]...], "ii": ..., "phi": ..., ...}.
Json to_json(const core::Allocation& alloc);

StatusOr<core::Kernel> kernel_from_json(const Json& j);
StatusOr<core::Application> application_from_json(const Json& j);
StatusOr<core::DeviceClass> device_class_from_json(const Json& j);
StatusOr<core::Platform> platform_from_json(const Json& j);
StatusOr<core::Problem> problem_from_json(const Json& j);

/// Convenience: parse text and build the problem in one step.
StatusOr<core::Problem> problem_from_text(std::string_view text);

// ---- Service traces (see the file comment for the schema). -------------

Json to_json(const service::Event& event);
Json to_json(const scenario::Trace& trace);

StatusOr<service::Event> event_from_json(const Json& j);
StatusOr<scenario::Trace> trace_from_json(const Json& j);

/// Convenience: parse text and build the trace in one step.
StatusOr<scenario::Trace> trace_from_text(std::string_view text);

// ---- Service pipelines, outcomes, and the WAL record formats. ----------

Json to_json(const service::PipelineSpec& pipe);
StatusOr<service::PipelineSpec> pipeline_spec_from_json(const Json& j);

/// The *deterministic* slice of an outcome — every field except wall
/// clock, so two replays of one trace dump byte-identical logs (the
/// property CI diffs). Callers wanting latency add it themselves.
/// Encoding: a flat key sequence (seq..delta) followed by a nested
/// "diff" object and "warm_allocs".
Json to_json(const service::EventOutcome& outcome);

/// Migration diff → {"computed", "cus_moved", "disturbed",
/// "goal_regret", "stability_applied", "budget_exceeded"}.
Json to_json(const service::AllocationDiff& diff);

/// Occupancy ledger pieces (the GET /v1/occupancy payload).
Json to_json(const service::DeviceOccupancy& device);
Json to_json(const service::PipelinePlacement& placement);
Json to_json(const service::OccupancyTracker& occupancy);

/// WAL line formats (see service/wal.hpp for the file layout). All
/// require schema_version — the WAL was born versioned.
Json wal_header_to_json(const core::Platform& initial_platform);
StatusOr<core::Platform> wal_header_from_json(const Json& j);
Json to_json(const service::WalRecord& record);
StatusOr<service::WalRecord> wal_record_from_json(const Json& j);
Json to_json(const service::WalSnapshot& snapshot);
StatusOr<service::WalSnapshot> wal_snapshot_from_json(const Json& j);

/// Reads a whole file into a string (kInvalid on I/O failure).
StatusOr<std::string> read_file(const std::string& path);

/// Writes text to a file (kInvalid on I/O failure).
Status write_file(const std::string& path, std::string_view text);

}  // namespace mfa::io
