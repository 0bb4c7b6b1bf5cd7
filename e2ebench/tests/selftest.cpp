// Fixed-input tests of the benchmark's own helpers: percentiles and
// counts, the outcome comparison, the request batching, the span
// recorder's derived times, the host-speed factor, the result line and the
// workload-spec loader.
//
//   mfa_e2e_selftest        (or: python3 e2ebench/run.py --selftest)
//
// Prints one line per failed check and exits nonzero on any failure.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "io/json.hpp"
#include "spans.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::printf("FAIL line %d: %s\n", line, what);
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void statistics() {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  CHECK(e2e::percentile(ten, 0.5) == 5.0);   // nearest rank: ceil(5) = 5th
  CHECK(e2e::percentile(ten, 0.99) == 10.0);
  CHECK(e2e::percentile(ten, 0.0) == 1.0);
  CHECK(e2e::percentile(ten, 0.1) == 1.0);
  CHECK(e2e::percentile(ten, 0.11) == 2.0);
  CHECK(e2e::percentile({}, 0.5) == 0.0);
  CHECK(e2e::percentile({42.0}, 0.99) == 42.0);

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const e2e::Summary s = e2e::summarize(hundred);
  CHECK(s.p50 == 50.0);
  CHECK(s.p99 == 99.0);
  CHECK(s.n == 100);

  // Windowed: per-window p50s are 2, 20 and 5 → median 5; a disturbed
  // window (20) does not move it. Pooled keeps every sample.
  e2e::WindowedSamples w;
  for (double v : {1.0, 2.0, 3.0}) w.add(0, v);
  for (double v : {10.0, 20.0, 30.0}) w.add(1, v);
  for (double v : {4.0, 5.0, 6.0}) w.add(3, v);  // window 2 stays empty
  CHECK(w.windowed(0.5) == 5.0);
  CHECK(w.windowed(0.99) == 6.0);  // per-window maxima 3, 30, 6
  CHECK(w.size() == 9);
  CHECK(w.pooled().size() == 9);
  CHECK(e2e::WindowedSamples().windowed(0.5) == 0.0);

  CHECK(near(e2e::mean({1, 2, 3, 4}), 2.5));
  CHECK(e2e::mean({}) == 0.0);
  CHECK(near(e2e::share(1, 4), 0.25));
  CHECK(e2e::share(3, 0) == 0.0);
}

void digests() {
  // FNV-1a 64 reference values.
  CHECK(e2e::digest_hex("") == "cbf29ce484222325");
  CHECK(e2e::digest_hex("a") == "af63dc4c8601ec8c");
  CHECK(e2e::digest_hex("ab") != e2e::digest_hex("ba"));
}

void outcome_comparison() {
  auto wire = mfa::io::Json::parse(
      R"({"sequence":3,"type":"add","latency_ms":1.25,"status":"ok"})");
  CHECK(wire.is_ok());
  CHECK(e2e::deterministic_outcome(wire.value()) ==
        R"({"sequence":3,"type":"add","status":"ok"})");
  auto bare = mfa::io::Json::parse(R"({"sequence":3})");
  CHECK(e2e::deterministic_outcome(bare.value()) == R"({"sequence":3})");

  const std::vector<std::string> a = {"x", "y", "z"};
  CHECK(e2e::first_mismatch(a, a) == -1);
  CHECK(e2e::first_mismatch(a, {"x", "q", "z"}) == 1);
  CHECK(e2e::first_mismatch(a, {"x", "y"}) == 2);
  CHECK(e2e::first_mismatch({}, {}) == -1);
  CHECK(e2e::first_mismatch({}, {"x"}) == 0);
}

void batching() {
  const auto b = e2e::batches(0, 10, 4);
  CHECK(b.size() == 3);
  CHECK(b[0].first == 0 && b[0].second == 4);
  CHECK(b[2].first == 8 && b[2].second == 10);
  CHECK(e2e::batches(0, 3, 0).size() == 3);  // batch < 1 means 1
  CHECK(e2e::batches(5, 5, 16).empty());
}

void spans() {
  // parent [0, 100) with children [10, 30) and [40, 90): self = 30.
  e2e::Tracer t;
  t.add(e2e::Span{"parent", 0, 100, -1, 1, 0});
  t.add(e2e::Span{"child", 10, 30, 0, 1, 0});
  t.add(e2e::Span{"child", 40, 90, 0, 2, 0});
  t.add(e2e::Span{"parent", 200, 260, -1, 2, 0});
  const auto d = t.durations("parent", 1.0);
  CHECK(d.size() == 2 && d[0] == 100.0 && d[1] == 60.0);
  const auto self = t.self_times("parent", 1.0);
  CHECK(self.size() == 2 && self[0] == 30.0 && self[1] == 60.0);
  const auto child_self = t.self_times("child", 10.0);
  CHECK(child_self.size() == 2 && child_self[0] == 2.0 && child_self[1] == 5.0);
  const auto ids = t.by_id("child", 1.0);
  CHECK(ids.size() == 2 && ids.at(1) == 20.0 && ids.at(2) == 50.0);
  CHECK(t.durations("absent", 1.0).empty());

  // Scopes nest per thread.
  e2e::Tracer live;
  {
    e2e::Tracer::Scope outer(live, "outer", 7);
    e2e::Tracer::Scope inner(live, "inner", 7);
  }
  CHECK(live.spans().size() == 2);
  CHECK(live.spans()[0].parent == -1 && live.spans()[1].parent == 0);
  CHECK(live.spans()[1].end_ns <= live.spans()[0].end_ns);

  e2e::Tracer off(false);
  { e2e::Tracer::Scope s(off, "ignored"); }
  CHECK(off.spans().empty());
}

void calibration() {
  // A host at reference speed leaves wall time as it is; one that takes
  // twice the reference time for the job halves it.
  const double ref = e2e::kReferenceCalibrationS;
  CHECK(near(e2e::host_factor(ref, ref), 1.0));
  CHECK(near(e2e::host_factor(2 * ref, 2 * ref), 0.5));
  CHECK(near(e2e::host_factor(ref, 3 * ref), 0.5));  // the mean of the two
  CHECK(e2e::host_factor(0.0, 0.0) == 1.0);
  CHECK(e2e::calibrate() > 0.0);
}

void result_line() {
  e2e::Report r;
  r.add("a_ms", 1.5, "ms", 10);
  r.add("b", 2.0, "count", 1);
  auto line = r.result_line(true, 7, 1, {"a_ms"});
  CHECK(line.is_ok());
  auto doc = mfa::io::Json::parse(line.value());
  CHECK(doc.is_ok());
  const mfa::io::Json& j = doc.value();
  CHECK(j.members().size() == 4);
  CHECK(j.find("correct")->as_bool());
  CHECK(j.find("attempted")->as_number() == 7);
  CHECK(j.find("failed")->as_number() == 1);
  const mfa::io::Json* m = j.find("metrics");
  CHECK(m->members().size() == 1);
  CHECK(m->find("a_ms")->find("value")->as_number() == 1.5);
  CHECK(m->find("a_ms")->find("unit")->as_string() == "ms");
  CHECK(!r.result_line(true, 1, 0, {"missing"}).is_ok());
}

void workload_specs() {
  const std::string sweep =
      R"({"workloads":{"w":{"kind":"sweep","fraction_lo":0.5,)"
      R"("fraction_hi":1,"fraction_step":0.25,"node_cap":1000,)"
      R"("max_workers":2,"exact_probe_points":3,"serving_probe":"s"}}})";
  auto doc = mfa::io::Json::parse(sweep);
  CHECK(doc.is_ok());
  auto spec = e2e::parse_workload(doc.value(), "w");
  CHECK(spec.is_ok());
  CHECK(spec.value().kind == "sweep" && spec.value().serving_probe == "s");
  CHECK(spec.value().sweep.node_cap == 1000);
  CHECK(e2e::sweep_problems(spec.value().sweep).size() == 9);  // 3 cases x 3
  CHECK(!e2e::parse_workload(doc.value(), "absent").is_ok());

  // Every field is required: no silent defaults.
  std::string missing = sweep;
  missing.erase(missing.find(R"("node_cap":1000,)"), 16);
  auto partial = mfa::io::Json::parse(missing);
  CHECK(partial.is_ok());
  auto rejected = e2e::parse_workload(partial.value(), "w");
  CHECK(!rejected.is_ok());
  CHECK(!rejected.is_ok() &&
        rejected.status().to_string().find("node_cap") != std::string::npos);
}

}  // namespace

int main() {
  statistics();
  digests();
  outcome_comparison();
  batching();
  spans();
  calibration();
  result_line();
  workload_specs();
  std::printf("selftest: %s (%d failed)\n", failures ? "FAIL" : "ok", failures);
  return failures ? 1 : 0;
}
