// Versioned wire API of the allocation daemon (mfallocd).
//
//   POST /v1/events      {"schema_version":4,"events":[<event>...]}
//                        Events use exactly the io/serialize trace
//                        schema (add/remove/reprioritize/resize). The
//                        whole body is validated before anything is
//                        submitted; a malformed body is a 400 and no
//                        event runs (schema_version 1 to 3 bodies are
//                        still accepted). A valid body returns 200 with
//                        {"schema_version":4,"outcomes":[...]} — one
//                        outcome per event, in order, each the
//                        deterministic EventOutcome slice plus
//                        "latency_ms"; *application* failures (unknown
//                        id, infeasible resize) are per-outcome
//                        statuses, not HTTP errors.
//   GET  /v1/allocation  Current incumbent per shard.
//   GET  /v1/occupancy   Per-shard occupancy ledger: each FPGA's
//                        free/occupied resources, bandwidth and CU
//                        count, plus every live pipeline's placement
//                        rows (see service/occupancy.hpp).
//   GET  /v1/stats       Merged + per-shard ServiceStats, plus a
//                        top-level "events_processed": the number of
//                        *client* events the deployment has applied,
//                        with broadcast resizes counted once rather
//                        than once per shard — the point `mfalloc_cli
//                        post --resume` continues a partially-posted
//                        trace from after a crash.
//   GET  /v1/healthz     Liveness: {"status":"ok"}.
//
// Everything else is a JSON-bodied 404/405. The handler is transport-
// agnostic (HttpRequest → HttpResponse), so tests can drive it without
// sockets; net::HttpServer plugs it in directly.
#pragma once

#include "net/http.hpp"
#include "service/shard_router.hpp"

namespace mfa::net {

class Api {
 public:
  /// `router` is not owned and must outlive the Api.
  explicit Api(service::ShardRouter* router) : router_(router) {}

  [[nodiscard]] HttpResponse handle(const HttpRequest& request);

 private:
  HttpResponse post_events(const HttpRequest& request);
  HttpResponse get_allocation();
  HttpResponse get_occupancy();
  HttpResponse get_stats();

  service::ShardRouter* router_;
};

}  // namespace mfa::net
