#include "io/serialize.hpp"

#include <fstream>
#include <sstream>

namespace mfa::io {
namespace {

using core::Application;
using core::Kernel;
using core::Platform;
using core::Problem;
using core::Resource;
using core::ResourceVec;

/// Reads the fields of one JSON object `j`. An absent optional field
/// reads as its fallback. A field present with the wrong type, or an
/// absent required one, reads as a fallback too, but sets `status` to
/// kInvalid naming `ctx` and the first such key.
struct Fields {
  Fields(const Json& j_in, std::string ctx_in)
      : j(j_in), ctx(std::move(ctx_in)) {}

  const Json& j;
  std::string ctx;
  Status status;

  double number(const char* key, double fallback) {
    const Json* v = typed(key, &Json::is_number, "a number");
    return v != nullptr ? v->as_number() : fallback;
  }
  double required_number(const char* key) {
    if (j.find(key) == nullptr) fail(std::string("missing '") + key + "'");
    return number(key, 0.0);
  }
  std::string text(const char* key, const char* fallback) {
    const Json* v = typed(key, &Json::is_string, "a string");
    return v != nullptr ? v->as_string() : fallback;
  }
  const Json* typed(const char* key, bool (Json::*is)() const,
                    const char* type) {
    const Json* v = j.find(key);
    if (v == nullptr || (v->*is)()) return v;
    fail(std::string("'") + key + "' must be " + type);
    return nullptr;
  }
  void fail(const std::string& why) {
    if (status.is_ok()) status = {Code::kInvalid, ctx + ": " + why};
  }
};

/// Checked double → integer conversion. A bare static_cast<int> of an
/// attacker-controlled JSON number is UB once the value leaves int's
/// range, so every integer field goes through here: must be integral
/// and within [min, max].
StatusOr<long long> json_to_int(const Json& v, const char* what,
                                long long min, long long max) {
  if (!v.is_number()) {
    return Status{Code::kInvalid, std::string(what) + " must be a number"};
  }
  const double d = v.as_number();
  if (d != static_cast<double>(static_cast<long long>(d)) ||
      d < static_cast<double>(min) || d > static_cast<double>(max)) {
    return Status{Code::kInvalid, std::string(what) + " must be an integer in [" +
                                      std::to_string(min) + ", " +
                                      std::to_string(max) + "]"};
  }
  return static_cast<long long>(d);
}

/// Fetches a required integer field with range validation.
StatusOr<long long> need_int(const Json& j, const char* key, const char* ctx,
                             long long min, long long max) {
  const Json* v = j.find(key);
  if (v == nullptr) {
    return Status{Code::kInvalid,
                  std::string(ctx) + ": missing field '" + key + "'"};
  }
  return json_to_int(*v, (std::string(ctx) + ": '" + key + "'").c_str(), min,
                     max);
}

}  // namespace

Status check_schema_version(const Json& j, const char* ctx, bool required) {
  const Json* v = j.is_object() ? j.find("schema_version") : nullptr;
  if (v == nullptr) {
    if (!required) return Status::ok();  // legacy v0 payload
    return Status{Code::kInvalid,
                  std::string(ctx) + ": missing 'schema_version'"};
  }
  StatusOr<long long> version = json_to_int(
      *v, (std::string(ctx) + ": 'schema_version'").c_str(), 0, 1L << 30);
  if (!version.is_ok()) return version.status();
  if (version.value() < 1 || version.value() > kSchemaVersion) {
    return Status{Code::kInvalid,
                  std::string(ctx) + ": unsupported schema_version " +
                      std::to_string(version.value()) + " (supported: 1.." +
                      std::to_string(kSchemaVersion) + ")"};
  }
  return Status::ok();
}

Json to_json(const Kernel& kernel) {
  Json j = Json::object();
  j.set("name", Json::string(kernel.name));
  j.set("wcet_ms", Json::number(kernel.wcet_ms));
  j.set("bram", Json::number(kernel.res[Resource::kBram]));
  j.set("dsp", Json::number(kernel.res[Resource::kDsp]));
  j.set("lut", Json::number(kernel.res[Resource::kLut]));
  j.set("ff", Json::number(kernel.res[Resource::kFf]));
  j.set("bw", Json::number(kernel.bw));
  return j;
}

Json to_json(const Application& app) {
  Json j = Json::object();
  j.set("name", Json::string(app.name));
  Json kernels = Json::array();
  for (const Kernel& k : app.kernels) kernels.push_back(to_json(k));
  j.set("kernels", std::move(kernels));
  return j;
}

namespace {

Json capacity_to_json(const ResourceVec& capacity) {
  Json cap = Json::object();
  cap.set("bram", Json::number(capacity[Resource::kBram]));
  cap.set("dsp", Json::number(capacity[Resource::kDsp]));
  cap.set("lut", Json::number(capacity[Resource::kLut]));
  cap.set("ff", Json::number(capacity[Resource::kFf]));
  return cap;
}

StatusOr<ResourceVec> capacity_from_json(const Json& cap,
                                         const std::string& ctx) {
  if (!cap.is_object()) {
    return Status{Code::kInvalid, ctx + ": 'capacity' must be an object"};
  }
  Fields fields{cap, ctx + " capacity"};
  ResourceVec v;
  v[Resource::kBram] = fields.number("bram", 100.0);
  v[Resource::kDsp] = fields.number("dsp", 100.0);
  v[Resource::kLut] = fields.number("lut", 100.0);
  v[Resource::kFf] = fields.number("ff", 100.0);
  if (!fields.status.is_ok()) return fields.status;
  return v;
}

}  // namespace

Json to_json(const core::DeviceClass& device_class) {
  Json j = Json::object();
  j.set("name", Json::string(device_class.name));
  j.set("capacity", capacity_to_json(device_class.capacity));
  j.set("bw_capacity", Json::number(device_class.bw_capacity));
  return j;
}

Json to_json(const Platform& platform) {
  Json j = Json::object();
  j.set("name", Json::string(platform.name));
  j.set("fpgas", Json::number(platform.num_fpgas));
  if (platform.homogeneous()) {
    j.set("capacity", capacity_to_json(platform.capacity));
    j.set("bw_capacity", Json::number(platform.bw_capacity));
  } else {
    Json classes = Json::array();
    for (const core::DeviceClass& dc : platform.classes) {
      classes.push_back(to_json(dc));
    }
    j.set("classes", std::move(classes));
    Json class_of = Json::array();
    for (int c : platform.class_of) class_of.push_back(Json::number(c));
    j.set("class_of", std::move(class_of));
  }
  return j;
}

Json to_json(const Problem& problem) {
  Json j = Json::object();
  j.set("schema_version", Json::number(kSchemaVersion));
  j.set("application", to_json(problem.app));
  j.set("platform", to_json(problem.platform));
  j.set("resource_fraction", Json::number(problem.resource_fraction));
  j.set("bw_fraction", Json::number(problem.bw_fraction));
  j.set("alpha", Json::number(problem.alpha));
  j.set("beta", Json::number(problem.beta));
  return j;
}

Json to_json(const core::Allocation& alloc) {
  Json j = Json::object();
  j.set("schema_version", Json::number(kSchemaVersion));
  Json matrix = Json::array();
  for (std::size_t k = 0; k < alloc.num_kernels(); ++k) {
    Json fpga_row = Json::array();
    for (int f = 0; f < alloc.num_fpgas(); ++f) {
      fpga_row.push_back(Json::number(alloc.cu(k, f)));
    }
    matrix.push_back(std::move(fpga_row));
  }
  j.set("matrix", std::move(matrix));
  j.set("ii_ms", Json::number(alloc.ii()));
  j.set("phi", Json::number(alloc.phi()));
  j.set("goal", Json::number(alloc.goal()));
  j.set("avg_utilization", Json::number(alloc.average_utilization()));
  j.set("feasible", Json::boolean(alloc.feasible()));
  return j;
}

StatusOr<Kernel> kernel_from_json(const Json& j) {
  if (!j.is_object()) return Status{Code::kInvalid, "kernel: not an object"};
  Kernel k;
  Fields fields{j, "kernel"};
  k.name = fields.text("name", "kernel");
  fields.ctx = "kernel '" + k.name + "'";
  k.wcet_ms = fields.required_number("wcet_ms");
  k.res[Resource::kBram] = fields.number("bram", 0.0);
  k.res[Resource::kDsp] = fields.number("dsp", 0.0);
  k.res[Resource::kLut] = fields.number("lut", 0.0);
  k.res[Resource::kFf] = fields.number("ff", 0.0);
  k.bw = fields.number("bw", 0.0);
  if (!fields.status.is_ok()) return fields.status;
  return k;
}

StatusOr<Application> application_from_json(const Json& j) {
  if (!j.is_object()) {
    return Status{Code::kInvalid, "application: not an object"};
  }
  Application app;
  Fields fields{j, "application"};
  app.name = fields.text("name", "application");
  if (!fields.status.is_ok()) return fields.status;
  const Json* kernels = j.find("kernels");
  if (kernels == nullptr || !kernels->is_array() || kernels->size() == 0) {
    return Status{Code::kInvalid,
                  "application: 'kernels' must be a non-empty array"};
  }
  for (std::size_t i = 0; i < kernels->size(); ++i) {
    StatusOr<Kernel> k = kernel_from_json(kernels->at(i));
    if (!k.is_ok()) return k.status();
    app.kernels.push_back(std::move(k.value()));
  }
  return app;
}

StatusOr<core::DeviceClass> device_class_from_json(const Json& j) {
  if (!j.is_object()) {
    return Status{Code::kInvalid, "device class: not an object"};
  }
  core::DeviceClass dc;
  Fields fields{j, "device class"};
  dc.name = fields.text("name", "class");
  dc.bw_capacity = fields.number("bw_capacity", 100.0);
  if (!fields.status.is_ok()) return fields.status;
  if (const Json* cap = j.find("capacity"); cap != nullptr) {
    StatusOr<ResourceVec> capacity = capacity_from_json(*cap, "device class");
    if (!capacity.is_ok()) return capacity.status();
    dc.capacity = capacity.value();
  }
  return dc;
}

StatusOr<Platform> platform_from_json(const Json& j) {
  if (!j.is_object()) {
    return Status{Code::kInvalid, "platform: not an object"};
  }
  Platform p;
  Fields fields{j, "platform"};
  p.name = fields.text("name", "platform");
  p.bw_capacity = fields.number("bw_capacity", 100.0);
  if (!fields.status.is_ok()) return fields.status;
  StatusOr<long long> fpgas = need_int(j, "fpgas", "platform", 1, 1 << 20);
  if (!fpgas.is_ok()) return fpgas.status();
  p.num_fpgas = static_cast<int>(fpgas.value());
  if (const Json* cap = j.find("capacity"); cap != nullptr) {
    StatusOr<ResourceVec> capacity = capacity_from_json(*cap, "platform");
    if (!capacity.is_ok()) return capacity.status();
    p.capacity = capacity.value();
  }

  // Heterogeneous extension: a device-class list plus a per-FPGA class
  // assignment. Both must be present together and consistent.
  const Json* classes = j.find("classes");
  const Json* class_of = j.find("class_of");
  if (classes == nullptr && class_of == nullptr) return p;
  if (classes == nullptr || class_of == nullptr) {
    return Status{Code::kInvalid,
                  "platform: 'classes' and 'class_of' must appear together"};
  }
  if (!classes->is_array() || classes->size() == 0) {
    return Status{Code::kInvalid,
                  "platform: 'classes' must be a non-empty array"};
  }
  if (!class_of->is_array() ||
      class_of->size() != static_cast<std::size_t>(p.num_fpgas)) {
    return Status{Code::kInvalid,
                  "platform: 'class_of' must list one class per FPGA"};
  }
  for (std::size_t i = 0; i < classes->size(); ++i) {
    StatusOr<core::DeviceClass> dc = device_class_from_json(classes->at(i));
    if (!dc.is_ok()) return dc.status();
    p.classes.push_back(std::move(dc.value()));
  }
  for (std::size_t i = 0; i < class_of->size(); ++i) {
    StatusOr<long long> idx =
        json_to_int(class_of->at(i), "platform: 'class_of' entry", 0,
                    static_cast<long long>(p.classes.size()) - 1);
    if (!idx.is_ok()) return idx.status();
    p.class_of.push_back(static_cast<int>(idx.value()));
  }
  return p;
}

StatusOr<Problem> problem_from_json(const Json& j) {
  if (!j.is_object()) return Status{Code::kInvalid, "problem: not an object"};
  if (Status v = check_schema_version(j, "problem", /*required=*/false);
      !v.is_ok()) {
    return v;
  }
  const Json* app = j.find("application");
  if (app == nullptr) {
    return Status{Code::kInvalid, "problem: missing 'application'"};
  }
  StatusOr<Application> application = application_from_json(*app);
  if (!application.is_ok()) return application.status();

  const Json* plat = j.find("platform");
  if (plat == nullptr) {
    return Status{Code::kInvalid, "problem: missing 'platform'"};
  }
  StatusOr<Platform> platform = platform_from_json(*plat);
  if (!platform.is_ok()) return platform.status();

  Problem p;
  p.app = std::move(application.value());
  p.platform = std::move(platform.value());
  Fields fields{j, "problem"};
  p.resource_fraction = fields.number("resource_fraction", 1.0);
  p.bw_fraction = fields.number("bw_fraction", 1.0);
  p.alpha = fields.number("alpha", 1.0);
  p.beta = fields.number("beta", 0.0);
  if (!fields.status.is_ok()) return fields.status;
  return p;
}

StatusOr<Problem> problem_from_text(std::string_view text) {
  StatusOr<Json> doc = Json::parse(text);
  if (!doc.is_ok()) return doc.status();
  return problem_from_json(doc.value());
}

Json to_json(const service::Event& event) {
  using Type = service::Event::Type;
  Json j = Json::object();
  j.set("type", Json::string(service::to_string(event.type)));
  j.set("time_ms", Json::number(event.time_ms));
  switch (event.type) {
    case Type::kAddPipeline:
      j.set("id", Json::string(event.pipeline.id));
      j.set("weight", Json::number(event.pipeline.weight));
      j.set("application", to_json(event.pipeline.app));
      break;
    case Type::kRemovePipeline:
      j.set("id", Json::string(event.id));
      break;
    case Type::kReprioritize:
      j.set("id", Json::string(event.id));
      j.set("weight", Json::number(event.weight));
      break;
    case Type::kResizePlatform:
      j.set("platform", to_json(event.platform));
      break;
  }
  return j;
}

Json to_json(const scenario::Trace& trace) {
  Json j = Json::object();
  j.set("schema_version", Json::number(kSchemaVersion));
  j.set("platform", to_json(trace.platform));
  Json events = Json::array();
  for (const service::Event& e : trace.events) events.push_back(to_json(e));
  j.set("events", std::move(events));
  return j;
}

StatusOr<service::Event> event_from_json(const Json& j) {
  using Type = service::Event::Type;
  if (!j.is_object()) return Status{Code::kInvalid, "event: not an object"};
  Fields fields{j, "event"};
  const std::string type = fields.text("type", "");
  service::Event e;
  e.time_ms = fields.number("time_ms", 0.0);
  if (!fields.status.is_ok()) return fields.status;
  fields.ctx = type + " event";
  if (type == "add") {
    e.type = Type::kAddPipeline;
    e.pipeline.id = fields.text("id", "");
    e.pipeline.weight = fields.number("weight", 1.0);
    if (!fields.status.is_ok()) return fields.status;
    if (e.pipeline.id.empty()) {
      return Status{Code::kInvalid, "add event: missing 'id'"};
    }
    const Json* app = j.find("application");
    if (app == nullptr) {
      return Status{Code::kInvalid, "add event: missing 'application'"};
    }
    StatusOr<Application> parsed = application_from_json(*app);
    if (!parsed.is_ok()) return parsed.status();
    e.pipeline.app = std::move(parsed.value());
    return e;
  }
  if (type == "remove" || type == "reprioritize") {
    e.type = type == "remove" ? Type::kRemovePipeline : Type::kReprioritize;
    e.id = fields.text("id", "");
    if (e.type == Type::kReprioritize) {
      e.weight = fields.required_number("weight");
    }
    if (!fields.status.is_ok()) return fields.status;
    if (e.id.empty()) {
      return Status{Code::kInvalid, type + " event: missing 'id'"};
    }
    return e;
  }
  if (type == "resize") {
    e.type = Type::kResizePlatform;
    const Json* plat = j.find("platform");
    if (plat == nullptr) {
      return Status{Code::kInvalid, "resize event: missing 'platform'"};
    }
    StatusOr<Platform> parsed = platform_from_json(*plat);
    if (!parsed.is_ok()) return parsed.status();
    e.platform = std::move(parsed.value());
    return e;
  }
  return Status{Code::kInvalid, "event: unknown type '" + type + "'"};
}

StatusOr<scenario::Trace> trace_from_json(const Json& j) {
  if (!j.is_object()) return Status{Code::kInvalid, "trace: not an object"};
  if (Status v = check_schema_version(j, "trace", /*required=*/false);
      !v.is_ok()) {
    return v;
  }
  scenario::Trace trace;
  const Json* plat = j.find("platform");
  if (plat == nullptr) {
    return Status{Code::kInvalid, "trace: missing 'platform'"};
  }
  StatusOr<Platform> platform = platform_from_json(*plat);
  if (!platform.is_ok()) return platform.status();
  trace.platform = std::move(platform.value());
  const Json* events = j.find("events");
  if (events == nullptr || !events->is_array()) {
    return Status{Code::kInvalid, "trace: missing 'events' array"};
  }
  trace.events.reserve(events->size());
  for (std::size_t i = 0; i < events->size(); ++i) {
    StatusOr<service::Event> e = event_from_json(events->at(i));
    if (!e.is_ok()) {
      return Status{Code::kInvalid, "events[" + std::to_string(i) +
                                        "]: " + e.status().message()};
    }
    trace.events.push_back(std::move(e.value()));
  }
  return trace;
}

StatusOr<scenario::Trace> trace_from_text(std::string_view text) {
  StatusOr<Json> doc = Json::parse(text);
  if (!doc.is_ok()) return doc.status();
  return trace_from_json(doc.value());
}

Json to_json(const service::PipelineSpec& pipe) {
  Json j = Json::object();
  j.set("id", Json::string(pipe.id));
  j.set("weight", Json::number(pipe.weight));
  j.set("application", to_json(pipe.app));
  return j;
}

StatusOr<service::PipelineSpec> pipeline_spec_from_json(const Json& j) {
  if (!j.is_object()) {
    return Status{Code::kInvalid, "pipeline: not an object"};
  }
  service::PipelineSpec pipe;
  Fields fields{j, "pipeline"};
  pipe.id = fields.text("id", "");
  pipe.weight = fields.number("weight", 1.0);
  if (!fields.status.is_ok()) return fields.status;
  if (pipe.id.empty()) {
    return Status{Code::kInvalid, "pipeline: missing 'id'"};
  }
  const Json* app = j.find("application");
  if (app == nullptr) {
    return Status{Code::kInvalid, "pipeline: missing 'application'"};
  }
  StatusOr<Application> parsed = application_from_json(*app);
  if (!parsed.is_ok()) return parsed.status();
  pipe.app = std::move(parsed.value());
  return pipe;
}

Json to_json(const service::EventOutcome& o) {
  Json j = Json::object();
  j.set("seq", Json::number(static_cast<double>(o.sequence)));
  j.set("type", Json::string(service::to_string(o.type)));
  if (!o.id.empty()) j.set("id", Json::string(o.id));
  j.set("status", Json::string(o.status.to_string()));
  j.set("solve_status", Json::string(o.solve_status.to_string()));
  j.set("active", Json::number(static_cast<double>(o.active_pipelines)));
  j.set("ii_ms", Json::number(o.solve.ii));
  j.set("phi", Json::number(o.solve.phi));
  j.set("goal", Json::number(o.solve.goal));
  Json totals = Json::array();
  for (int t : o.solve.totals) totals.push_back(Json::number(t));
  j.set("totals", std::move(totals));
  j.set("nodes", Json::number(static_cast<double>(o.solve.nodes)));
  j.set("delta", Json::string(service::to_string(o.delta)));
  j.set("diff", to_json(o.diff));
  // Warm-path allocation count (0 unless the build links the counting
  // interposer).
  j.set("warm_allocs", Json::number(static_cast<double>(o.warm_allocs)));
  return j;
}

Json to_json(const service::AllocationDiff& d) {
  Json j = Json::object();
  j.set("computed", Json::boolean(d.computed));
  j.set("cus_moved", Json::number(d.cus_moved));
  j.set("disturbed", Json::number(d.pipelines_disturbed));
  j.set("goal_regret", Json::number(d.goal_regret));
  j.set("stability_applied", Json::boolean(d.stability_applied));
  j.set("budget_exceeded", Json::boolean(d.budget_exceeded));
  return j;
}

Json to_json(const service::DeviceOccupancy& dev) {
  Json j = Json::object();
  j.set("cus", Json::number(dev.cus));
  j.set("used", capacity_to_json(dev.used));
  j.set("capacity", capacity_to_json(dev.capacity));
  j.set("bw_used", Json::number(dev.bw_used));
  j.set("bw_capacity", Json::number(dev.bw_capacity));
  j.set("utilization", Json::number(dev.utilization));
  return j;
}

Json to_json(const service::PipelinePlacement& p) {
  Json j = Json::object();
  j.set("id", Json::string(p.id));
  j.set("cus", Json::number(p.total_cus()));
  Json rows = Json::array();
  for (const std::vector<int>& row : p.rows) {
    Json r = Json::array();
    for (const int n : row) r.push_back(Json::number(n));
    rows.push_back(std::move(r));
  }
  j.set("rows", std::move(rows));
  return j;
}

Json to_json(const service::OccupancyTracker& occ) {
  Json j = Json::object();
  j.set("valid", Json::boolean(occ.valid()));
  Json devices = Json::array();
  for (const service::DeviceOccupancy& dev : occ.devices()) {
    devices.push_back(to_json(dev));
  }
  j.set("devices", std::move(devices));
  Json placements = Json::array();
  for (const service::PipelinePlacement& p : occ.placements()) {
    placements.push_back(to_json(p));
  }
  j.set("placements", std::move(placements));
  return j;
}

Json wal_header_to_json(const core::Platform& initial_platform) {
  Json j = Json::object();
  j.set("schema_version", Json::number(kSchemaVersion));
  j.set("format", Json::string("mfa-wal"));
  j.set("platform", to_json(initial_platform));
  return j;
}

StatusOr<core::Platform> wal_header_from_json(const Json& j) {
  if (!j.is_object()) {
    return Status{Code::kInvalid, "wal header: not an object"};
  }
  if (Status v = check_schema_version(j, "wal header", /*required=*/true);
      !v.is_ok()) {
    return v;
  }
  if (Fields{j, "wal header"}.text("format", "") != "mfa-wal") {
    return Status{Code::kInvalid, "wal header: not an mfa-wal log"};
  }
  const Json* plat = j.find("platform");
  if (plat == nullptr) {
    return Status{Code::kInvalid, "wal header: missing 'platform'"};
  }
  return platform_from_json(*plat);
}

Json to_json(const service::WalRecord& record) {
  Json j = Json::object();
  j.set("schema_version", Json::number(kSchemaVersion));
  j.set("seq", Json::number(static_cast<double>(record.sequence)));
  j.set("event", to_json(record.event));
  return j;
}

StatusOr<service::WalRecord> wal_record_from_json(const Json& j) {
  if (!j.is_object()) {
    return Status{Code::kInvalid, "wal record: not an object"};
  }
  if (Status v = check_schema_version(j, "wal record", /*required=*/true);
      !v.is_ok()) {
    return v;
  }
  service::WalRecord record;
  // 2^53: past that, double-backed sequence numbers stop being exact.
  StatusOr<long long> seq =
      need_int(j, "seq", "wal record", 0, 1LL << 53);
  if (!seq.is_ok()) return seq.status();
  record.sequence = static_cast<std::uint64_t>(seq.value());
  const Json* event = j.find("event");
  if (event == nullptr) {
    return Status{Code::kInvalid, "wal record: missing 'event'"};
  }
  StatusOr<service::Event> parsed = event_from_json(*event);
  if (!parsed.is_ok()) return parsed.status();
  record.event = std::move(parsed.value());
  return record;
}

Json to_json(const service::WalSnapshot& snapshot) {
  Json j = Json::object();
  j.set("schema_version", Json::number(kSchemaVersion));
  j.set("seq", Json::number(static_cast<double>(snapshot.sequence)));
  j.set("platform", to_json(snapshot.platform));
  Json pipelines = Json::array();
  for (const service::PipelineSpec& p : snapshot.pipelines) {
    pipelines.push_back(to_json(p));
  }
  j.set("pipelines", std::move(pipelines));
  Json placements = Json::array();
  for (const service::PipelinePlacement& p : snapshot.placements) {
    placements.push_back(to_json(p));
  }
  j.set("placements", std::move(placements));
  return j;
}

StatusOr<service::WalSnapshot> wal_snapshot_from_json(const Json& j) {
  if (!j.is_object()) {
    return Status{Code::kInvalid, "wal snapshot: not an object"};
  }
  if (Status v = check_schema_version(j, "wal snapshot", /*required=*/true);
      !v.is_ok()) {
    return v;
  }
  service::WalSnapshot snapshot;
  StatusOr<long long> seq =
      need_int(j, "seq", "wal snapshot", 0, 1LL << 53);
  if (!seq.is_ok()) return seq.status();
  snapshot.sequence = static_cast<std::uint64_t>(seq.value());
  const Json* plat = j.find("platform");
  if (plat == nullptr) {
    return Status{Code::kInvalid, "wal snapshot: missing 'platform'"};
  }
  StatusOr<Platform> platform = platform_from_json(*plat);
  if (!platform.is_ok()) return platform.status();
  snapshot.platform = std::move(platform.value());
  const Json* pipelines = j.find("pipelines");
  if (pipelines == nullptr || !pipelines->is_array()) {
    return Status{Code::kInvalid, "wal snapshot: missing 'pipelines' array"};
  }
  snapshot.pipelines.reserve(pipelines->size());
  for (std::size_t i = 0; i < pipelines->size(); ++i) {
    StatusOr<service::PipelineSpec> p =
        pipeline_spec_from_json(pipelines->at(i));
    if (!p.is_ok()) {
      return Status{Code::kInvalid, "pipelines[" + std::to_string(i) +
                                        "]: " + p.status().message()};
    }
    snapshot.pipelines.push_back(std::move(p.value()));
  }
  // The placement ledger that makes recovery exact under migration
  // budgets: one record per live pipeline.
  const Json* placements = j.find("placements");
  if (placements == nullptr || !placements->is_array()) {
    return Status{Code::kInvalid, "wal snapshot: missing 'placements' array"};
  }
  snapshot.placements.reserve(placements->size());
  for (std::size_t i = 0; i < placements->size(); ++i) {
    const Json& pj = placements->at(i);
    const std::string where = "placements[" + std::to_string(i) + "]";
    if (!pj.is_object()) {
      return Status{Code::kInvalid, "wal snapshot: " + where +
                                        " is not an object"};
    }
    service::PipelinePlacement record;
    Fields fields{pj, "wal snapshot: " + where};
    record.id = fields.text("id", "");
    if (!fields.status.is_ok()) return fields.status;
    if (record.id.empty()) {
      return Status{Code::kInvalid, "wal snapshot: " + where + " missing 'id'"};
    }
    const Json* rows = pj.find("rows");
    if (rows == nullptr || !rows->is_array()) {
      return Status{Code::kInvalid,
                    "wal snapshot: " + where + " missing 'rows' array"};
    }
    record.rows.reserve(rows->size());
    for (std::size_t r = 0; r < rows->size(); ++r) {
      const Json& rj = rows->at(r);
      if (!rj.is_array()) {
        return Status{Code::kInvalid, "wal snapshot: " + where +
                                          ".rows is not an array of arrays"};
      }
      std::vector<int> row;
      row.reserve(rj.size());
      for (std::size_t f = 0; f < rj.size(); ++f) {
        if (!rj.at(f).is_number() || rj.at(f).as_number() < 0) {
          return Status{Code::kInvalid,
                        "wal snapshot: " + where +
                            ".rows holds a non-count entry"};
        }
        row.push_back(static_cast<int>(rj.at(f).as_number()));
      }
      record.rows.push_back(std::move(row));
    }
    snapshot.placements.push_back(std::move(record));
  }
  return snapshot;
}

StatusOr<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status{Code::kInvalid, "cannot open file: " + path};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Status write_file(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status{Code::kInvalid, "cannot open file: " + path};
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return out ? Status::ok()
             : Status{Code::kInvalid, "write failed: " + path};
}

}  // namespace mfa::io
