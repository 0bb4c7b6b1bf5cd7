// HTTP layer + wire API coverage. The parser tests feed bytes in
// adversarial shapes (split, pipelined, malformed, oversized); the
// server tests do real loopback round trips; the Api tests drive the
// transport-agnostic handler directly and assert the satellite
// guarantee that malformed JSON is a typed 400, never an abort.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "net/api.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "scenario/trace.hpp"
#include "service/shard_router.hpp"
#include "testutil.hpp"

namespace mfa::net {
namespace {

TEST(RequestParser, ParsesPostWithBody) {
  RequestParser parser;
  const std::string raw =
      "POST /v1/events HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 9\r\n"
      "\r\n"
      "{\"a\":1}\r\n";
  ASSERT_EQ(parser.feed(raw), RequestParser::State::kComplete);
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/events");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.body, "{\"a\":1}\r\n");
  ASSERT_NE(request.header("content-type"), nullptr);
  EXPECT_EQ(*request.header("content-type"), "application/json");
  EXPECT_TRUE(request.keep_alive());
}

TEST(RequestParser, ByteAtATimeFeedIsEquivalent) {
  const std::string raw =
      "GET /v1/stats HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\nok";
  RequestParser parser;
  for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
    ASSERT_EQ(parser.feed(std::string_view(&raw[i], 1)),
              RequestParser::State::kIncomplete)
        << "byte " << i;
  }
  ASSERT_EQ(parser.feed(std::string_view(&raw[raw.size() - 1], 1)),
            RequestParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/v1/stats");
  EXPECT_EQ(parser.request().body, "ok");
}

TEST(RequestParser, ResetReplaysPipelinedBytes) {
  RequestParser parser;
  const std::string two =
      "GET /first HTTP/1.1\r\n\r\n"
      "GET /second HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(parser.feed(two), RequestParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/first");
  parser.reset();
  // The second request was already buffered; reset() must surface it
  // without another feed.
  ASSERT_EQ(parser.state(), RequestParser::State::kComplete);
  EXPECT_EQ(parser.request().target, "/second");
  EXPECT_FALSE(parser.request().keep_alive());
}

TEST(RequestParser, MalformedRequestLineIs400) {
  RequestParser parser;
  ASSERT_EQ(parser.feed("NOT A REQUEST\r\n\r\n"),
            RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(RequestParser, OversizedHeadIs431) {
  RequestParser parser{ParserLimits(/*head=*/64, /*body=*/1024)};
  std::string raw = "GET / HTTP/1.1\r\nX-Pad: ";
  raw.append(200, 'x');
  ASSERT_EQ(parser.feed(raw), RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(RequestParser, OversizedBodyIs413) {
  RequestParser parser{ParserLimits(/*head=*/1024, /*body=*/16)};
  ASSERT_EQ(parser.feed("POST / HTTP/1.1\r\nContent-Length: 64\r\n\r\n"),
            RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(RequestParser, TransferEncodingIs501) {
  RequestParser parser;
  ASSERT_EQ(
      parser.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
      RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(RequestParser, UnsupportedVersionIs505) {
  RequestParser parser;
  ASSERT_EQ(parser.feed("GET / HTTP/2.0\r\n\r\n"),
            RequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(Http, KeepAliveDefaults) {
  HttpRequest request;
  request.version = "HTTP/1.1";
  EXPECT_TRUE(request.keep_alive());
  request.headers.emplace_back("connection", "close");
  EXPECT_FALSE(request.keep_alive());
  HttpRequest old;
  old.version = "HTTP/1.0";
  EXPECT_FALSE(old.keep_alive());
  old.headers.emplace_back("connection", "keep-alive");
  EXPECT_TRUE(old.keep_alive());
}

TEST(Http, FormatResponseFramesBody) {
  HttpResponse response;
  response.status = 200;
  response.body = "{\"x\":1}\n";
  const std::string wire = format_response(response, /*keep_alive=*/true);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 8\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  // A client parser must accept exactly what the server emits.
  ResponseParser parser;
  ASSERT_EQ(parser.feed(wire), ResponseParser::State::kComplete);
  EXPECT_EQ(parser.status(), 200);
  EXPECT_EQ(parser.response().body, response.body);
}

TEST(HttpServer, LoopbackRoundTrip) {
  ServerConfig config;  // port 0 = ephemeral
  HttpServer server(config, [](const HttpRequest& request) {
    HttpResponse response;
    response.body = "{\"echo\":\"" + request.target + "\"}\n";
    return response;
  });
  ASSERT_TRUE(server.start().is_ok());
  ASSERT_NE(server.port(), 0);

  auto response = http_get("127.0.0.1", server.port(), "/ping");
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(response.value().body, "{\"echo\":\"/ping\"}\n");

  // Several sequential requests against the same server instance.
  for (int i = 0; i < 3; ++i) {
    auto again = http_post("127.0.0.1", server.port(), "/post", "body");
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again.value().body, "{\"echo\":\"/post\"}\n");
  }
  server.stop();
}

/// Sends raw bytes to the server and returns everything read until the
/// peer closes (the server closes after answering a malformed request).
std::string raw_round_trip(std::uint16_t port, const std::string& bytes) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::string got;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
          static_cast<ssize_t>(bytes.size())) {
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      got.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  return got;
}

TEST(HttpServer, MalformedRequestGetsParserErrorAndClose) {
  ServerConfig config;
  HttpServer server(config,
                    [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(server.start().is_ok());
  const std::string reply =
      raw_round_trip(server.port(), "THIS IS NOT HTTP\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.1 400", 0), 0u) << reply;
  const std::string old_version =
      raw_round_trip(server.port(), "GET / HTTP/2.0\r\n\r\n");
  EXPECT_EQ(old_version.rfind("HTTP/1.1 505", 0), 0u) << old_version;
  server.stop();
}

TEST(HttpServer, PipelinedRequestsAnswerInOrder) {
  ServerConfig config;
  HttpServer server(config, [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.target + "\n";
    return response;
  });
  ASSERT_TRUE(server.start().is_ok());
  // Two requests in one write; the second closes the connection, so
  // raw_round_trip's read-until-close collects both responses.
  const std::string reply = raw_round_trip(
      server.port(),
      "GET /one HTTP/1.1\r\n\r\n"
      "GET /two HTTP/1.1\r\nConnection: close\r\n\r\n");
  const std::size_t first = reply.find("/one\n");
  const std::size_t second = reply.find("/two\n");
  EXPECT_NE(first, std::string::npos) << reply;
  EXPECT_NE(second, std::string::npos) << reply;
  EXPECT_LT(first, second);
  server.stop();
}

/// Api fixture: a 2-shard router over a small pool, no sockets.
class ApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Platform platform{"pool", 3};
    service::RouterOptions options;
    options.shards = 2;
    auto r = service::ShardRouter::open(platform, options);
    ASSERT_TRUE(r.is_ok());
    router_ = std::move(r.value());
    api_ = std::make_unique<Api>(router_.get());
  }

  HttpResponse call(const std::string& method, const std::string& target,
                    const std::string& body = "") {
    HttpRequest request;
    request.method = method;
    request.target = target;
    request.version = "HTTP/1.1";
    request.body = body;
    return api_->handle(request);
  }

  static std::string add_event_body(const std::string& id) {
    core::Application app;
    app.name = "app-" + id;
    app.kernels = {test::make_kernel("k0", 8.0, 10.0, 20.0, 5.0),
                   test::make_kernel("k1", 4.0, 5.0, 10.0, 8.0)};
    io::Json events = io::Json::array();
    events.push_back(
        io::to_json(service::Event::add(service::PipelineSpec{id, app, 1.0})));
    io::Json body = io::Json::object();
    body.set("schema_version", io::Json::number(io::kSchemaVersion));
    body.set("events", std::move(events));
    return body.dump();
  }

  std::unique_ptr<service::ShardRouter> router_;
  std::unique_ptr<Api> api_;
};

TEST_F(ApiTest, HealthzIsOk) {
  const HttpResponse response = call("GET", "/v1/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "{\"status\":\"ok\"}\n");
}

TEST_F(ApiTest, UnknownEndpointIs404) {
  EXPECT_EQ(call("GET", "/v2/healthz").status, 404);
  EXPECT_EQ(call("GET", "/").status, 404);
}

TEST_F(ApiTest, WrongMethodIs405) {
  EXPECT_EQ(call("GET", "/v1/events").status, 405);
  EXPECT_EQ(call("POST", "/v1/stats").status, 405);
  EXPECT_EQ(call("POST", "/v1/occupancy").status, 405);
}

TEST_F(ApiTest, OutcomesCarryTheMigrationDiff) {
  ASSERT_EQ(call("POST", "/v1/events", add_event_body("first")).status,
            200);
  // The second add has an incumbent to diff against.
  const HttpResponse response =
      call("POST", "/v1/events", add_event_body("second"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = io::Json::parse(response.body);
  ASSERT_TRUE(doc.is_ok());
  const io::Json* outcome = &doc.value().find("outcomes")->at(0);
  const io::Json* diff = outcome->find("diff");
  ASSERT_NE(diff, nullptr);
  for (const char* key : {"computed", "cus_moved", "disturbed",
                          "goal_regret", "stability_applied",
                          "budget_exceeded"}) {
    EXPECT_NE(diff->find(key), nullptr) << key;
  }
  EXPECT_TRUE(diff->find("computed")->as_bool());
}

TEST_F(ApiTest, OccupancyReportsTheLedgerPerShard) {
  // Empty pool: valid endpoint, invalid (cleared) ledgers.
  auto empty = io::Json::parse(call("GET", "/v1/occupancy").body);
  ASSERT_TRUE(empty.is_ok());
  EXPECT_EQ(empty.value().find("schema_version")->as_number(),
            static_cast<double>(io::kSchemaVersion));
  ASSERT_EQ(empty.value().find("shards")->size(), 2u);

  ASSERT_EQ(call("POST", "/v1/events", add_event_body("tenant-o")).status,
            200);
  auto doc = io::Json::parse(call("GET", "/v1/occupancy").body);
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc.value().find("active_pipelines")->as_number(), 1.0);
  const io::Json* shards = doc.value().find("shards");
  ASSERT_EQ(shards->size(), 2u);
  std::size_t valid_shards = 0;
  std::size_t placements = 0;
  for (std::size_t i = 0; i < shards->size(); ++i) {
    const io::Json& shard = shards->at(i);
    EXPECT_EQ(shard.find("shard")->as_number(), static_cast<double>(i));
    ASSERT_NE(shard.find("devices"), nullptr);
    ASSERT_NE(shard.find("placements"), nullptr);
    if (shard.find("valid")->as_bool()) ++valid_shards;
    placements += shard.find("placements")->size();
  }
  // The pipeline hashed to exactly one shard, whose ledger is live.
  EXPECT_EQ(valid_shards, 1u);
  ASSERT_EQ(placements, 1u);
}

TEST_F(ApiTest, StatsExposeStabilityCounters) {
  ASSERT_EQ(call("POST", "/v1/events", add_event_body("tenant-s")).status,
            200);
  auto stats = io::Json::parse(call("GET", "/v1/stats").body);
  ASSERT_TRUE(stats.is_ok());
  const io::Json* merged = stats.value().find("merged");
  ASSERT_NE(merged, nullptr);
  for (const char* key : {"cus_moved", "pipelines_disturbed",
                          "stability_repacks", "budget_exceeded"}) {
    ASSERT_NE(merged->find(key), nullptr) << key;
    EXPECT_GE(merged->find(key)->as_number(), 0.0) << key;
  }
}

TEST_F(ApiTest, StatsExposeWalCounters) {
  ASSERT_EQ(call("POST", "/v1/events", add_event_body("tenant-w")).status,
            200);
  auto stats = io::Json::parse(call("GET", "/v1/stats").body);
  ASSERT_TRUE(stats.is_ok());
  std::vector<const io::Json*> blocks{stats.value().find("merged")};
  const io::Json* shards = stats.value().find("shards");
  ASSERT_NE(shards, nullptr);
  for (std::size_t i = 0; i < shards->size(); ++i) {
    blocks.push_back(&shards->at(i));
  }
  for (const io::Json* block : blocks) {
    ASSERT_NE(block, nullptr);
    for (const char* key : {"snapshots", "wal_commits", "wal_errors"}) {
      ASSERT_NE(block->find(key), nullptr) << key;
      EXPECT_EQ(block->find(key)->as_number(), 0.0) << key;  // no WAL here
    }
  }
}

TEST_F(ApiTest, ValidBatchRunsAndReturnsOutcomes) {
  const HttpResponse response =
      call("POST", "/v1/events", add_event_body("tenant-a"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto doc = io::Json::parse(response.body);
  ASSERT_TRUE(doc.is_ok());
  const io::Json* outcomes = doc.value().find("outcomes");
  ASSERT_NE(outcomes, nullptr);
  ASSERT_EQ(outcomes->size(), 1u);
  EXPECT_EQ(outcomes->at(0).find("status")->as_string(), "ok");
  EXPECT_NE(outcomes->at(0).find("latency_ms"), nullptr);
  EXPECT_EQ(router_->active_pipelines(), 1u);
}

TEST_F(ApiTest, MalformedJsonIs400AndRunsNothing) {
  const std::vector<std::string> corpus = {
      "",
      "{",
      "not json at all",
      "[1,2,3]",
      "42",
      "{\"schema_version\":1,\"events\":{}}",
      "{\"schema_version\":1,\"events\":[{\"type\":\"add\"}]}",
      "{\"schema_version\":1,\"events\":[null]}",
      std::string(64, '['),
      "{\"schema_version\":1,\"events\":[{\"type\":\"nope\",\"id\":\"x\"}]}",
  };
  for (const std::string& body : corpus) {
    SCOPED_TRACE(body.substr(0, 40));
    EXPECT_EQ(call("POST", "/v1/events", body).status, 400);
  }
  EXPECT_EQ(router_->stats().sequence, 0u);  // nothing half-ran
}

TEST_F(ApiTest, MissingOrUnknownSchemaVersionIs400) {
  EXPECT_EQ(call("POST", "/v1/events", "{\"events\":[]}").status, 400);
  EXPECT_EQ(
      call("POST", "/v1/events", "{\"schema_version\":99,\"events\":[]}")
          .status,
      400);
}

TEST_F(ApiTest, SchemaFiveAndOlderBodiesAreAccepted) {
  // Schemas 2 to 5 only dropped counters from outcomes and /v1/stats;
  // a body stamped with an older version still runs.
  const HttpResponse response =
      call("POST", "/v1/events", add_event_body("tenant-v"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto reply = io::Json::parse(response.body);
  ASSERT_TRUE(reply.is_ok());
  EXPECT_EQ(reply.value().find("schema_version")->as_number(), 5.0);
  const io::Json& outcome = reply.value().find("outcomes")->at(0);
  EXPECT_NE(outcome.find("nodes"), nullptr);
  EXPECT_EQ(outcome.find("relax_hits"), nullptr);

  io::Json events = io::Json::array();
  events.push_back(io::to_json(service::Event::remove("tenant-v")));
  io::Json old = io::Json::object();
  old.set("schema_version", io::Json::number(4));
  old.set("events", std::move(events));
  EXPECT_EQ(call("POST", "/v1/events", old.dump()).status, 200);
  EXPECT_EQ(router_->active_pipelines(), 0u);

  auto stats = io::Json::parse(call("GET", "/v1/stats").body);
  ASSERT_TRUE(stats.is_ok());
  const io::Json* merged = stats.value().find("merged");
  ASSERT_NE(merged, nullptr);
  EXPECT_NE(merged->find("solve_nodes"), nullptr);
  EXPECT_EQ(merged->find("relax_hits"), nullptr);
}

TEST_F(ApiTest, HalfBadBatchIsRejectedAtomically) {
  // First event valid, second garbage: nothing may run.
  auto doc = io::Json::parse(add_event_body("tenant-b"));
  ASSERT_TRUE(doc.is_ok());
  io::Json events = io::Json::array();
  events.push_back(doc.value().find("events")->at(0));
  events.push_back(io::Json::string("garbage"));
  io::Json body = io::Json::object();
  body.set("schema_version", io::Json::number(io::kSchemaVersion));
  body.set("events", std::move(events));
  EXPECT_EQ(call("POST", "/v1/events", body.dump()).status, 400);
  EXPECT_EQ(router_->stats().sequence, 0u);
  EXPECT_EQ(router_->active_pipelines(), 0u);
}

TEST_F(ApiTest, EventsProcessedCountsBroadcastsOnce) {
  // One add + one resize: the resize runs on both shards (merged
  // counters see 3 events), but the client posted 2 — and
  // "events_processed", the post --resume point, must say 2.
  auto doc = io::Json::parse(add_event_body("tenant-r"));
  ASSERT_TRUE(doc.is_ok());
  io::Json events = io::Json::array();
  events.push_back(doc.value().find("events")->at(0));
  core::Platform bigger{"pool", 5};
  events.push_back(io::to_json(service::Event::resize(bigger)));
  io::Json body = io::Json::object();
  body.set("schema_version", io::Json::number(io::kSchemaVersion));
  body.set("events", std::move(events));
  ASSERT_EQ(call("POST", "/v1/events", body.dump()).status, 200);

  auto stats = io::Json::parse(call("GET", "/v1/stats").body);
  ASSERT_TRUE(stats.is_ok());
  EXPECT_EQ(stats.value().find("events_processed")->as_number(), 2.0);
  const io::Json* merged = stats.value().find("merged");
  EXPECT_EQ(merged->find("events_ok")->as_number() +
                merged->find("events_failed")->as_number(),
            3.0);
  EXPECT_EQ(merged->find("resizes")->as_number(), 2.0);
}

TEST_F(ApiTest, AllocationAndStatsReportState) {
  ASSERT_EQ(call("POST", "/v1/events", add_event_body("tenant-c")).status,
            200);
  auto alloc = io::Json::parse(call("GET", "/v1/allocation").body);
  ASSERT_TRUE(alloc.is_ok());
  EXPECT_EQ(alloc.value().find("active_pipelines")->as_number(), 1.0);
  EXPECT_EQ(alloc.value().find("shards")->size(), 2u);

  auto stats = io::Json::parse(call("GET", "/v1/stats").body);
  ASSERT_TRUE(stats.is_ok());
  const io::Json* merged = stats.value().find("merged");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->find("events_ok")->as_number(), 1.0);
  EXPECT_EQ(stats.value().find("shards")->size(), 2u);
}

TEST(ApiOverSockets, EndToEndPostAndStats) {
  core::Platform platform{"pool", 3};
  service::RouterOptions options;
  options.shards = 2;
  auto router = service::ShardRouter::open(platform, options);
  ASSERT_TRUE(router.is_ok());
  Api api(router.value().get());
  ServerConfig config;
  HttpServer server(config, [&api](const HttpRequest& request) {
    return api.handle(request);
  });
  ASSERT_TRUE(server.start().is_ok());

  core::Application app;
  app.name = "wire-app";
  app.kernels = {test::make_kernel("k0", 8.0, 10.0, 20.0, 5.0)};
  io::Json events = io::Json::array();
  events.push_back(io::to_json(
      service::Event::add(service::PipelineSpec{"wire-1", app, 1.0})));
  io::Json body = io::Json::object();
  body.set("schema_version", io::Json::number(io::kSchemaVersion));
  body.set("events", std::move(events));

  auto posted = http_post("127.0.0.1", server.port(), "/v1/events",
                          body.dump());
  ASSERT_TRUE(posted.is_ok()) << posted.status().to_string();
  EXPECT_EQ(posted.value().status, 200);

  auto stats = http_get("127.0.0.1", server.port(), "/v1/stats");
  ASSERT_TRUE(stats.is_ok());
  auto doc = io::Json::parse(stats.value().body);
  ASSERT_TRUE(doc.is_ok());
  EXPECT_EQ(doc.value().find("merged")->find("events_ok")->as_number(), 1.0);
  server.stop();
  router.value()->stop();
}

}  // namespace
}  // namespace mfa::net
