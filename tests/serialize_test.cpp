#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "hls/paper.hpp"
#include "io/serialize.hpp"
#include "testutil.hpp"

namespace mfa::io {
namespace {

using core::Problem;
using core::Resource;
using test::tiny_problem;

TEST(Serialize, ProblemRoundTrip) {
  const Problem original = tiny_problem();
  const std::string text = to_json(original).dump(2);
  auto parsed = problem_from_text(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const Problem& p = parsed.value();
  EXPECT_EQ(p.app.name, original.app.name);
  ASSERT_EQ(p.num_kernels(), original.num_kernels());
  for (std::size_t k = 0; k < p.num_kernels(); ++k) {
    EXPECT_EQ(p.app.kernels[k].name, original.app.kernels[k].name);
    EXPECT_DOUBLE_EQ(p.app.kernels[k].wcet_ms,
                     original.app.kernels[k].wcet_ms);
    EXPECT_TRUE(p.app.kernels[k].res == original.app.kernels[k].res);
    EXPECT_DOUBLE_EQ(p.app.kernels[k].bw, original.app.kernels[k].bw);
  }
  EXPECT_EQ(p.num_fpgas(), original.num_fpgas());
  EXPECT_DOUBLE_EQ(p.resource_fraction, original.resource_fraction);
  EXPECT_DOUBLE_EQ(p.alpha, original.alpha);
  EXPECT_DOUBLE_EQ(p.beta, original.beta);
}

TEST(Serialize, PaperCaseRoundTripValidates) {
  Problem original = hls::paper::case_vgg_8fpga();
  original.resource_fraction = 0.61;
  auto parsed = problem_from_text(to_json(original).dump());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_TRUE(parsed.value().validate().is_ok());
  EXPECT_DOUBLE_EQ(parsed.value().beta, 50.0);
}

TEST(Serialize, DefaultsApplyForOptionalFields) {
  const char* minimal = R"({
    "application": {"kernels": [{"name": "k", "wcet_ms": 2.0}]},
    "platform": {"fpgas": 3}
  })";
  auto parsed = problem_from_text(minimal);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const Problem& p = parsed.value();
  EXPECT_EQ(p.num_fpgas(), 3);
  EXPECT_DOUBLE_EQ(p.platform.capacity[Resource::kDsp], 100.0);
  EXPECT_DOUBLE_EQ(p.platform.bw_capacity, 100.0);
  EXPECT_DOUBLE_EQ(p.resource_fraction, 1.0);
  EXPECT_DOUBLE_EQ(p.alpha, 1.0);
  EXPECT_DOUBLE_EQ(p.beta, 0.0);
  EXPECT_DOUBLE_EQ(p.app.kernels[0].bw, 0.0);
}

TEST(Serialize, MissingRequiredFieldsReportPaths) {
  auto no_app = problem_from_text(R"({"platform": {"fpgas": 1}})");
  EXPECT_EQ(no_app.status().code(), Code::kInvalid);
  EXPECT_NE(no_app.status().message().find("application"),
            std::string::npos);

  auto no_wcet = problem_from_text(
      R"({"application": {"kernels": [{"name": "k"}]},
          "platform": {"fpgas": 1}})");
  EXPECT_EQ(no_wcet.status().code(), Code::kInvalid);
  EXPECT_NE(no_wcet.status().message().find("wcet_ms"), std::string::npos);

  auto empty_kernels = problem_from_text(
      R"({"application": {"kernels": []}, "platform": {"fpgas": 1}})");
  EXPECT_EQ(empty_kernels.status().code(), Code::kInvalid);

  auto bad_fpgas = problem_from_text(
      R"({"application": {"kernels": [{"name":"k","wcet_ms":1}]},
          "platform": {"fpgas": 0}})");
  EXPECT_EQ(bad_fpgas.status().code(), Code::kInvalid);
}

TEST(Serialize, AllocationJsonCarriesMetrics) {
  Problem p = tiny_problem();
  core::Allocation a(p);
  a.set_cu(0, 0, 2);
  a.set_cu(1, 0, 1);
  a.set_cu(2, 1, 1);
  const Json j = to_json(a);
  EXPECT_DOUBLE_EQ(j.find("ii_ms")->as_number(), a.ii());
  EXPECT_DOUBLE_EQ(j.find("phi")->as_number(), a.phi());
  EXPECT_TRUE(j.find("feasible")->as_bool());
  const Json* matrix = j.find("matrix");
  ASSERT_NE(matrix, nullptr);
  EXPECT_EQ(matrix->size(), p.num_kernels());
  EXPECT_DOUBLE_EQ(matrix->at(0).at(0).as_number(), 2.0);
}

TEST(Serialize, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/mfa_serialize_test.json";
  const Problem original = tiny_problem();
  ASSERT_TRUE(write_file(path, to_json(original).dump(2)).is_ok());
  auto text = read_file(path);
  ASSERT_TRUE(text.is_ok());
  auto parsed = problem_from_text(text.value());
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value().app.name, original.app.name);
  std::remove(path.c_str());
}

TEST(Serialize, ReadMissingFileFails) {
  auto r = read_file("/nonexistent/path/nope.json");
  EXPECT_EQ(r.status().code(), Code::kInvalid);
}

// ---- schema_version: writers stamp it, readers accept the current
// version and legacy v0 (no field), and reject anything else. ------------

/// Copy of an object with one member removed (Json has no erase).
Json without(const Json& j, std::string_view key) {
  Json out = Json::object();
  for (const auto& [k, v] : j.members()) {
    if (k != key) out.set(k, v);
  }
  return out;
}

scenario::Trace tiny_trace() {
  scenario::Trace trace;
  const Problem p = tiny_problem();
  trace.platform = p.platform;
  trace.events.push_back(
      service::Event::add(service::PipelineSpec{"p0", p.app, 1.0}, 0.5));
  trace.events.push_back(service::Event::remove("p0", 2.0));
  return trace;
}

TEST(Serialize, SchemaVersionStampedOnWrite) {
  const Json problem = to_json(tiny_problem());
  ASSERT_NE(problem.find("schema_version"), nullptr);
  EXPECT_EQ(problem.find("schema_version")->as_number(), kSchemaVersion);
  EXPECT_TRUE(problem_from_json(problem).is_ok());

  const Json trace = to_json(tiny_trace());
  ASSERT_NE(trace.find("schema_version"), nullptr);
  EXPECT_EQ(trace.find("schema_version")->as_number(), kSchemaVersion);
  auto round = trace_from_json(trace);
  ASSERT_TRUE(round.is_ok());
  // v0 → current migration: re-serializing a legacy document stamps the
  // current version.
  auto legacy = trace_from_json(without(trace, "schema_version"));
  ASSERT_TRUE(legacy.is_ok());
  EXPECT_EQ(to_json(legacy.value()).find("schema_version")->as_number(),
            kSchemaVersion);
}

TEST(Serialize, LegacyV0DocumentsAccepted) {
  // Pre-versioning documents carry no schema_version; both readers
  // accept them (version is only *required* on the wire and in WALs).
  EXPECT_TRUE(
      problem_from_json(without(to_json(tiny_problem()), "schema_version"))
          .is_ok());
  EXPECT_TRUE(
      trace_from_json(without(to_json(tiny_trace()), "schema_version"))
          .is_ok());
}

TEST(Serialize, EveryVersionUpToFiveAccepted) {
  // Versions 2 to 5 only trimmed the outcome/stats output: inputs at any
  // version, including WALs written before a bump, read unchanged, and
  // the next version is not guessed at.
  EXPECT_EQ(kSchemaVersion, 5);
  Json problem = to_json(tiny_problem());
  Json trace = to_json(tiny_trace());
  service::WalRecord record;
  record.sequence = 3;
  record.event = tiny_trace().events.front();
  Json wal = to_json(record);
  for (const int version : {1, 2, 3, 4, 5}) {
    SCOPED_TRACE("schema_version " + std::to_string(version));
    problem.set("schema_version", Json::number(version));
    trace.set("schema_version", Json::number(version));
    wal.set("schema_version", Json::number(version));
    EXPECT_TRUE(problem_from_json(problem).is_ok());
    EXPECT_TRUE(trace_from_json(trace).is_ok());
    auto parsed = wal_record_from_json(wal);
    ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value().sequence, 3u);
  }
  problem.set("schema_version", Json::number(6));
  EXPECT_EQ(problem_from_json(problem).status().code(), Code::kInvalid);
}

TEST(Serialize, UnknownSchemaVersionRejected) {
  Json problem = to_json(tiny_problem());
  problem.set("schema_version", Json::number(99));
  EXPECT_EQ(problem_from_json(problem).status().code(), Code::kInvalid);
  problem.set("schema_version", Json::number(1.5));
  EXPECT_EQ(problem_from_json(problem).status().code(), Code::kInvalid);
  problem.set("schema_version", Json::string("1"));
  EXPECT_EQ(problem_from_json(problem).status().code(), Code::kInvalid);

  Json trace = to_json(tiny_trace());
  trace.set("schema_version", Json::number(99));
  EXPECT_EQ(trace_from_json(trace).status().code(), Code::kInvalid);
}

TEST(Serialize, WalRecordRequiresSchemaVersion) {
  service::WalRecord record;
  record.sequence = 7;
  record.event = tiny_trace().events.front();
  const Json j = to_json(record);
  auto ok = wal_record_from_json(j);
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_EQ(ok.value().sequence, 7u);
  // The WAL was born versioned: a record without the field is corrupt,
  // not legacy.
  EXPECT_EQ(wal_record_from_json(without(j, "schema_version")).status().code(),
            Code::kInvalid);
  Json bad = j;
  bad.set("schema_version", Json::number(99));
  EXPECT_EQ(wal_record_from_json(bad).status().code(), Code::kInvalid);
}

TEST(Serialize, MalformedInputNeverAborts) {
  // Hostile-input corpus: every parser entry point must return a typed
  // error — never crash, abort, or hang — on arbitrary bytes.
  const std::vector<std::string> corpus = {
      "",
      " ",
      "{",
      "}",
      "[",
      "null",
      "true",
      "42",
      "\"string\"",
      "nan",
      "{\"application\":",
      "{\"application\":{\"kernels\":42}}",
      "{\"application\":{\"kernels\":[{\"wcet_ms\":\"fast\"}]}}",
      "{\"platform\":{\"fpgas\":-3}}",
      "{\"platform\":{\"fpgas\":1e308}}",
      "{\"events\":\"no\"}",
      "{\"platform\":{},\"events\":[{\"type\":\"warp\"}]}",
      "{\"schema_version\":\"one\"}",
      // Optional fields present with the wrong type are malformed, not
      // absent: no default may stand in for them.
      "{\"type\":\"add\",\"id\":\"p\",\"weight\":\"heavy\","
      "\"application\":{\"kernels\":[{\"wcet_ms\":1}]}}",
      "{\"type\":\"add\",\"id\":\"p\",\"application\":{\"kernels\":"
      "[{\"wcet_ms\":1,\"bram\":\"lots\"}]}}",
      "{\"type\":\"resize\",\"platform\":{\"fpgas\":2,"
      "\"capacity\":{\"bram\":\"x\"}}}",
      std::string(256, '['),
      std::string(256, '{'),
      "{\"a\":\"\\u12\"}",
      "{\"a\":\"unterminated",
      "\xff\xfe\x00garbage",
  };
  for (const std::string& text : corpus) {
    SCOPED_TRACE(text.substr(0, 32));
    EXPECT_FALSE(problem_from_text(text).is_ok());
    EXPECT_FALSE(trace_from_text(text).is_ok());
    auto doc = Json::parse(text);
    if (doc.is_ok()) {
      // Parsable but wrong-shaped documents must fail typed too.
      EXPECT_FALSE(event_from_json(doc.value()).is_ok());
      EXPECT_FALSE(wal_record_from_json(doc.value()).is_ok());
    }
  }
}

TEST(Serialize, MistypedOptionalFieldNamesItsPath) {
  // A present-but-mistyped optional field is kInvalid naming the object
  // and the key; the same field absent takes its default.
  const auto event = [](const std::string& text) {
    StatusOr<Json> doc = Json::parse(text);
    EXPECT_TRUE(doc.is_ok());
    return event_from_json(doc.value());
  };
  const auto expect_invalid = [&event](const std::string& text,
                                       const std::string& message) {
    StatusOr<service::Event> e = event(text);
    ASSERT_FALSE(e.is_ok());
    EXPECT_EQ(e.status().code(), Code::kInvalid);
    EXPECT_EQ(e.status().message(), message);
  };
  const std::string app = R"("application":{"kernels":[{"wcet_ms":1}]})";
  expect_invalid(R"({"type":"add","id":"p","weight":"heavy",)" + app + "}",
                 "add event: 'weight' must be a number");
  expect_invalid(
      R"({"type":"add","id":"p","application":{"kernels":)"
      R"([{"name":"k","wcet_ms":1,"bram":"lots"}]}})",
      "kernel 'k': 'bram' must be a number");
  expect_invalid(
      R"({"type":"resize","platform":{"fpgas":2,"capacity":{"bram":"x"}}})",
      "platform capacity: 'bram' must be a number");
  expect_invalid(R"({"type":"remove","id":7})",
                 "remove event: 'id' must be a string");

  StatusOr<service::Event> defaulted =
      event(R"({"type":"add","id":"p",)" + app + "}");
  ASSERT_TRUE(defaulted.is_ok()) << defaulted.status().to_string();
  EXPECT_EQ(defaulted.value().pipeline.weight, 1.0);
  EXPECT_EQ(defaulted.value().pipeline.app.kernels[0].res[Resource::kBram],
            0.0);
}

TEST(Serialize, EventOutcomeGoldenBytes) {
  // The schema-5 wire shape, pinned byte for byte: the flat keys up to
  // delta, then the migration diff.
  service::EventOutcome o;
  o.sequence = 7;
  o.type = service::Event::Type::kAddPipeline;
  o.id = "p1";
  o.active_pipelines = 2;
  o.solve.ii = 1.5;
  o.solve.phi = 0.5;
  o.solve.goal = 2.0;
  o.solve.totals = {2, 1};
  o.solve.nodes = 12;
  o.delta = service::CompositeDelta::kStructural;
  o.diff.computed = true;
  o.diff.cus_moved = 3;
  o.diff.pipelines_disturbed = 1;
  o.diff.goal_regret = 0.25;
  o.diff.stability_applied = true;
  EXPECT_EQ(to_json(o).dump(),
            "{\"seq\":7,\"type\":\"add\",\"id\":\"p1\",\"status\":\"ok\","
            "\"solve_status\":\"ok\",\"active\":2,"
            "\"ii_ms\":1.5,\"phi\":0.5,\"goal\":2,\"totals\":[2,1],"
            "\"nodes\":12,\"delta\":\"structural\","
            "\"diff\":{\"computed\":true,\"cus_moved\":3,"
            "\"disturbed\":1,\"goal_regret\":0.25,"
            "\"stability_applied\":true,\"budget_exceeded\":false}}");

  // Targetless events (resize) omit "id".
  service::EventOutcome bare;
  bare.type = service::Event::Type::kResizePlatform;
  const std::string dump = to_json(bare).dump();
  EXPECT_EQ(dump.find("\"id\""), std::string::npos);
  EXPECT_EQ(dump.rfind("{\"seq\":0,\"type\":\"resize\",\"status\":\"ok\"", 0),
            0u);
}

TEST(Serialize, WalSnapshotPlacementsRoundTrip) {
  service::WalSnapshot snapshot;
  snapshot.sequence = 12;
  snapshot.platform = core::Platform{"pool", 2};
  service::PipelineSpec pipe;
  pipe.id = "p0";
  pipe.app.kernels = {test::make_kernel("a", 8.0, 10.0, 20.0, 5.0)};
  snapshot.pipelines = {pipe};
  service::PipelinePlacement record;
  record.id = "p0";
  record.rows = {{2, 1}};
  snapshot.placements = {record};

  auto parsed = wal_snapshot_from_json(to_json(snapshot));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  ASSERT_EQ(parsed.value().placements.size(), 1u);
  EXPECT_EQ(parsed.value().placements[0].id, "p0");
  EXPECT_EQ(parsed.value().placements[0].rows,
            (std::vector<std::vector<int>>{{2, 1}}));
  // Round trip is lossless byte-wise, too.
  EXPECT_EQ(to_json(parsed.value()).dump(), to_json(snapshot).dump());

  // An empty pool's snapshot carries an empty ledger; a snapshot with
  // no ledger at all is rejected.
  Json empty = to_json(snapshot);
  empty.set("placements", Json::array());
  auto parsed_empty = wal_snapshot_from_json(empty);
  ASSERT_TRUE(parsed_empty.is_ok());
  EXPECT_TRUE(parsed_empty.value().placements.empty());
  const Json no_ledger = without(to_json(snapshot), "placements");
  EXPECT_FALSE(wal_snapshot_from_json(no_ledger).is_ok());

  // A corrupt ledger (negative count) is rejected, not clamped.
  Json bad_row = Json::array();
  bad_row.push_back(Json::number(-1));
  Json bad_rows = Json::array();
  bad_rows.push_back(std::move(bad_row));
  Json bad_placement = Json::object();
  bad_placement.set("id", Json::string("p0"));
  bad_placement.set("rows", std::move(bad_rows));
  Json bad_list = Json::array();
  bad_list.push_back(std::move(bad_placement));
  Json corrupt = to_json(snapshot);
  corrupt.set("placements", std::move(bad_list));
  EXPECT_FALSE(wal_snapshot_from_json(corrupt).is_ok());
}

TEST(Serialize, OccupancyJsonShape) {
  // The wire shape GET /v1/occupancy is built from.
  service::PipelinePlacement p;
  p.id = "p0";
  p.rows = {{1, 0}, {2, 3}};
  EXPECT_EQ(to_json(p).dump(),
            "{\"id\":\"p0\",\"cus\":6,\"rows\":[[1,0],[2,3]]}");

  service::OccupancyTracker empty;
  EXPECT_EQ(to_json(empty).dump(),
            "{\"valid\":false,\"devices\":[],\"placements\":[]}");
}

}  // namespace
}  // namespace mfa::io
