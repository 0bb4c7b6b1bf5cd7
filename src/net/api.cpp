#include "net/api.hpp"

#include <algorithm>
#include <cstdint>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "io/serialize.hpp"

namespace mfa::net {
namespace {

using io::Json;

HttpResponse json_response(int status, Json body) {
  HttpResponse response;
  response.status = status;
  response.body = body.dump() + "\n";
  return response;
}

HttpResponse error_response(int status, const std::string& message) {
  Json body = Json::object();
  body.set("error", Json::string(message));
  return json_response(status, std::move(body));
}

Json stats_to_json(const service::ServiceStats& s) {
  Json j = Json::object();
  j.set("sequence", Json::number(static_cast<double>(s.sequence)));
  j.set("events_ok", Json::number(static_cast<double>(s.events_ok)));
  j.set("events_failed",
        Json::number(static_cast<double>(s.events_failed)));
  j.set("resizes", Json::number(static_cast<double>(s.resizes)));
  j.set("active_pipelines",
        Json::number(static_cast<double>(s.active_pipelines)));
  j.set("solve_nodes", Json::number(static_cast<double>(s.solve_nodes)));
  j.set("cus_moved", Json::number(static_cast<double>(s.cus_moved)));
  j.set("pipelines_disturbed",
        Json::number(static_cast<double>(s.pipelines_disturbed)));
  j.set("stability_repacks",
        Json::number(static_cast<double>(s.stability_repacks)));
  j.set("budget_exceeded",
        Json::number(static_cast<double>(s.budget_exceeded)));
  j.set("snapshots", Json::number(static_cast<double>(s.snapshots)));
  j.set("wal_commits", Json::number(static_cast<double>(s.wal_commits)));
  j.set("wal_errors", Json::number(static_cast<double>(s.wal_errors)));
  j.set("p50_ms", Json::number(s.p50_ms));
  j.set("p95_ms", Json::number(s.p95_ms));
  j.set("p99_ms", Json::number(s.p99_ms));
  j.set("max_ms", Json::number(s.max_ms));
  return j;
}

}  // namespace

HttpResponse Api::handle(const HttpRequest& request) {
  if (request.target == "/v1/events") {
    if (request.method != "POST") {
      return error_response(405, "use POST /v1/events");
    }
    return post_events(request);
  }
  if (request.target == "/v1/allocation" ||
      request.target == "/v1/occupancy" || request.target == "/v1/stats" ||
      request.target == "/v1/healthz") {
    if (request.method != "GET") {
      return error_response(405, "use GET " + request.target);
    }
    if (request.target == "/v1/allocation") return get_allocation();
    if (request.target == "/v1/occupancy") return get_occupancy();
    if (request.target == "/v1/stats") return get_stats();
    Json body = Json::object();
    body.set("status", Json::string("ok"));
    return json_response(200, std::move(body));
  }
  return error_response(404, "no such endpoint: " + request.target);
}

HttpResponse Api::post_events(const HttpRequest& request) {
  StatusOr<Json> doc = Json::parse(request.body);
  if (!doc.is_ok()) {
    return error_response(400, doc.status().message());
  }
  const Json& body = doc.value();
  if (!body.is_object()) {
    return error_response(400, "body must be a JSON object");
  }
  // The wire format was born versioned: schema_version is required.
  if (Status v =
          io::check_schema_version(body, "events body", /*required=*/true);
      !v.is_ok()) {
    return error_response(400, v.message());
  }
  const Json* events = body.find("events");
  if (events == nullptr || !events->is_array()) {
    return error_response(400, "missing 'events' array");
  }

  // Validate the WHOLE batch before submitting anything: a body that is
  // half-garbage must not half-run.
  std::vector<service::Event> parsed;
  parsed.reserve(events->size());
  for (std::size_t i = 0; i < events->size(); ++i) {
    StatusOr<service::Event> e = io::event_from_json(events->at(i));
    if (!e.is_ok()) {
      return error_response(400, "events[" + std::to_string(i) +
                                     "]: " + e.status().message());
    }
    parsed.push_back(std::move(e.value()));
  }

  // Submit everything up front — events for different shards solve
  // concurrently — then collect in order.
  std::vector<std::future<service::EventOutcome>> futures;
  futures.reserve(parsed.size());
  for (service::Event& event : parsed) {
    futures.push_back(router_->submit(std::move(event)));
  }
  Json outcomes = Json::array();
  for (std::future<service::EventOutcome>& future : futures) {
    const service::EventOutcome outcome = future.get();
    Json row = io::to_json(outcome);
    row.set("latency_ms", Json::number(outcome.seconds * 1e3));
    outcomes.push_back(std::move(row));
  }
  Json reply = Json::object();
  reply.set("schema_version", Json::number(io::kSchemaVersion));
  reply.set("outcomes", std::move(outcomes));
  return json_response(200, std::move(reply));
}

HttpResponse Api::get_allocation() {
  Json shards = Json::array();
  const auto incumbents = router_->incumbents();
  for (std::size_t i = 0; i < incumbents.size(); ++i) {
    Json row = Json::object();
    row.set("shard", Json::number(static_cast<double>(i)));
    if (incumbents[i] && incumbents[i]->allocation) {
      row.set("allocation", io::to_json(*incumbents[i]->allocation));
      row.set("winner", Json::string(incumbents[i]->winner));
    } else {
      row.set("allocation", Json::null());
    }
    shards.push_back(std::move(row));
  }
  Json reply = Json::object();
  reply.set("schema_version", Json::number(io::kSchemaVersion));
  reply.set("active_pipelines",
            Json::number(static_cast<double>(router_->active_pipelines())));
  reply.set("shards", std::move(shards));
  return json_response(200, std::move(reply));
}

HttpResponse Api::get_occupancy() {
  Json shards = Json::array();
  for (std::size_t i = 0; i < router_->num_shards(); ++i) {
    Json row = io::to_json(router_->shard(i).occupancy());
    row.set("shard", Json::number(static_cast<double>(i)));
    shards.push_back(std::move(row));
  }
  Json reply = Json::object();
  reply.set("schema_version", Json::number(io::kSchemaVersion));
  reply.set("active_pipelines",
            Json::number(static_cast<double>(router_->active_pipelines())));
  reply.set("shards", std::move(shards));
  return json_response(200, std::move(reply));
}

HttpResponse Api::get_stats() {
  Json reply = Json::object();
  reply.set("schema_version", Json::number(io::kSchemaVersion));
  const std::vector<service::ServiceStats> shard_stats =
      router_->shard_stats();
  // Client events processed, de-duplicating broadcasts: a resize is
  // counted by every shard, so subtract each shard's resize count and
  // add the broadcast back once. min() is deliberate: if a crash split
  // a broadcast across shards, the partially-applied resize is reported
  // as NOT done, so a resuming client re-posts it (at-least-once; a
  // duplicate resize to the same pool shape is state-idempotent,
  // whereas skipping it would leave the missed shard stale forever).
  std::uint64_t processed = 0;
  std::uint64_t min_resizes = 0;
  for (std::size_t i = 0; i < shard_stats.size(); ++i) {
    const service::ServiceStats& s = shard_stats[i];
    processed += s.events_ok + s.events_failed - s.resizes;
    min_resizes =
        i == 0 ? s.resizes : std::min(min_resizes, s.resizes);
  }
  processed += min_resizes;
  reply.set("events_processed",
            Json::number(static_cast<double>(processed)));
  reply.set("merged", stats_to_json(router_->stats()));
  Json shards = Json::array();
  for (const service::ServiceStats& s : shard_stats) {
    shards.push_back(stats_to_json(s));
  }
  reply.set("shards", std::move(shards));
  return json_response(200, std::move(reply));
}

}  // namespace mfa::net
