#include "util.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "io/serialize.hpp"

namespace e2e {

using mfa::Code;
using mfa::Status;
using mfa::StatusOr;
using mfa::io::Json;

// ---- Statistics -----------------------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

Summary summarize(const std::vector<double>& values) {
  Summary s;
  s.p50 = percentile(values, 0.50);
  s.p99 = percentile(values, 0.99);
  s.n = values.size();
  return s;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void WindowedSamples::add(std::size_t window, double value) {
  if (window >= windows_.size()) windows_.resize(window + 1);
  windows_[window].push_back(value);
}

double WindowedSamples::windowed(double q) const {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows_) {
    if (!w.empty()) per_window.push_back(percentile(w, q));
  }
  return percentile(per_window, 0.5);
}

std::vector<double> WindowedSamples::pooled() const {
  std::vector<double> all;
  for (const std::vector<double>& w : windows_) {
    all.insert(all.end(), w.begin(), w.end());
  }
  return all;
}

std::size_t WindowedSamples::size() const {
  std::size_t n = 0;
  for (const std::vector<double>& w : windows_) n += w.size();
  return n;
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

std::string digest_hex(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// ---- Outcome comparison ---------------------------------------------------

std::string deterministic_outcome(const Json& wire_outcome) {
  if (!wire_outcome.is_object()) return wire_outcome.dump();
  Json out = Json::object();
  for (const auto& [key, value] : wire_outcome.members()) {
    if (key != "latency_ms") out.set(key, value);
  }
  return out.dump();
}

long first_mismatch(const std::vector<std::string>& got,
                    const std::vector<std::string>& want) {
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (got[i] != want[i]) return static_cast<long>(i);
  }
  return got.size() == want.size() ? -1 : static_cast<long>(n);
}

// ---- Connection -----------------------------------------------------------

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Connection::Connection(Connection&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<Connection> Connection::open(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status{Code::kInvalid, "socket failed"};
  Connection conn(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    return Status{Code::kInvalid, std::string("connect: ") +
                                      std::strerror(errno)};
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval timeout{60, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  return StatusOr<Connection>(std::move(conn));
}

StatusOr<mfa::net::HttpResponse> Connection::exchange(
    const std::string& request) {
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status{Code::kInvalid, "send failed"};
    sent += static_cast<std::size_t>(n);
  }
  mfa::net::ResponseParser parser;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status{Code::kInvalid, "connection closed or timed out"};
    const auto state =
        parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    if (state == mfa::net::ResponseParser::State::kComplete) {
      return parser.response();
    }
    if (state == mfa::net::ResponseParser::State::kError) {
      return Status{Code::kInvalid, "bad response: " + parser.error()};
    }
  }
}

// ---- Daemon ---------------------------------------------------------------

StatusOr<std::unique_ptr<Daemon>> Daemon::spawn(
    const std::string& binary, const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return Status{Code::kInvalid, "pipe"};
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status{Code::kInvalid, "fork failed"};
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    const int devnull = ::open("/dev/null", O_RDONLY);
    if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->pid_ = pid;
  daemon->stdout_fd_ = fds[0];

  // Read stdout until the "listening on <port>" line (30 s cap).
  std::string out;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    const std::size_t at = out.find("listening on ");
    if (at != std::string::npos && out.find('\n', at) != std::string::npos) {
      daemon->port_ = static_cast<std::uint16_t>(
          std::strtoul(out.c_str() + at + 13, nullptr, 10));
      return StatusOr<std::unique_ptr<Daemon>>(std::move(daemon));
    }
    pollfd p{daemon->stdout_fd_, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    char buf[512];
    const ssize_t n = ::read(daemon->stdout_fd_, buf, sizeof(buf));
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return Status{Code::kInvalid, "daemon did not report its port: " + out};
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const { return peak_rss_mb_of(pid_); }

void Daemon::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 200 && !reaped; ++i) {
      reaped = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    if (!reaped) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

double peak_rss_mb_of(pid_t pid) {
  const std::string path =
      pid > 0 ? "/proc/" + std::to_string(pid) + "/status"
              : std::string("/proc/self/status");
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8 && in; ++field) {
    std::uint64_t v = 0;
    in >> v;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& a, const CpuTicks& b) {
  return b.total > a.total ? share(b.steal - a.steal, b.total - a.total) : 0.0;
}

// ---- Report ---------------------------------------------------------------

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Entry{value, unit, samples};
}

void Report::add_windowed(const std::string& name,
                          const WindowedSamples& samples,
                          const std::string& unit) {
  const std::size_t n = samples.size();
  add(name + "_p50", samples.windowed(0.5), unit, n);
  add(name + "_p90", samples.windowed(0.9), unit, n);
  add(name + "_p99", percentile(samples.pooled(), 0.99), unit, n);
}

void Report::print_table() const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  for (const std::string& name : order_) {
    const Entry& e = metrics_.at(name);
    std::printf("%-40s %16.6g %-6s n=%zu\n", name.c_str(), e.value,
                e.unit.c_str(), e.samples);
  }
}

StatusOr<std::string> Report::result_line(
    bool correct, std::uint64_t attempted, std::uint64_t failed,
    const std::vector<std::string>& names) const {
  Json metrics = Json::object();
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      return Status{Code::kInvalid, "metric not measured: " + name};
    }
    Json m = Json::object();
    m.set("value", Json::number(it->second.value));
    m.set("unit", Json::string(it->second.unit));
    metrics.set(name, std::move(m));
  }
  Json line = Json::object();
  line.set("correct", Json::boolean(correct));
  line.set("attempted", Json::number(static_cast<double>(attempted)));
  line.set("failed", Json::number(static_cast<double>(failed)));
  line.set("metrics", std::move(metrics));
  return line.dump();
}

// ---- Workload specs -------------------------------------------------------

namespace {

/// Reads the numeric members of one object; every one is required, and
/// the names of the missing ones are collected for one error.
class Fields {
 public:
  explicit Fields(const Json& obj) : obj_(obj) {}

  double num(const char* key) {
    const Json* v = obj_.find(key);
    if (v != nullptr && v->is_number()) return v->as_number();
    missing_ += missing_.empty() ? key : std::string(", ") + key;
    return 0.0;
  }
  int inum(const char* key) { return static_cast<int>(num(key)); }

  [[nodiscard]] Status status(const std::string& where) const {
    if (missing_.empty()) return Status{};
    return Status{Code::kInvalid, where + ": missing " + missing_};
  }

 private:
  const Json& obj_;
  std::string missing_;
};

}  // namespace

StatusOr<WorkloadSpec> load_workload(const std::string& path,
                                     const std::string& name) {
  auto text = mfa::io::read_file(path);
  if (!text.is_ok()) return text.status();
  auto doc = Json::parse(text.value());
  if (!doc.is_ok()) return doc.status();
  return parse_workload(doc.value(), name);
}

StatusOr<WorkloadSpec> parse_workload(const Json& doc,
                                      const std::string& name) {
  const Json* all = doc.find("workloads");
  const Json* w = all != nullptr ? all->find(name) : nullptr;
  if (w == nullptr || !w->is_object()) {
    return Status{Code::kInvalid, "unknown workload: " + name};
  }
  WorkloadSpec spec;
  spec.name = name;
  const Json* kind = w->find("kind");
  spec.kind = kind != nullptr && kind->is_string() ? kind->as_string() : "";
  Fields f(*w);
  if (spec.kind == "serve") {
    const Json* t = w->find("trace");
    if (t == nullptr) return Status{Code::kInvalid, name + ": no trace"};
    Fields tf(*t);
    mfa::scenario::TraceSpec& ts = spec.serve.trace;
    ts.num_events = tf.inum("num_events");
    ts.arrival_rate_per_s = tf.num("arrival_rate_per_s");
    ts.mean_lifetime_s = tf.num("mean_lifetime_s");
    ts.max_live_pipelines = tf.inum("max_live_pipelines");
    ts.reprioritize_fraction = tf.num("reprioritize_fraction");
    ts.resize_fraction = tf.num("resize_fraction");
    ts.min_kernels = tf.inum("min_kernels");
    ts.max_kernels = tf.inum("max_kernels");
    ts.min_wcet_ms = tf.num("min_wcet_ms");
    ts.max_wcet_ms = tf.num("max_wcet_ms");
    ts.max_cu_per_kernel = tf.inum("max_cu_per_kernel");
    ts.min_weight = tf.num("min_weight");
    ts.max_weight = tf.num("max_weight");
    ts.num_fpgas = tf.inum("num_fpgas");
    ts.max_extra_fpgas = tf.inum("max_extra_fpgas");
    if (Status st = tf.status(name + ".trace"); !st.is_ok()) return st;
    ServeSpec& s = spec.serve;
    s.batch = f.inum("batch");
    s.offered_events_per_s = f.num("offered_events_per_s");
    s.closed_events = f.inum("closed_events");
    s.warmup_events = f.inum("warmup_events");
    s.traced_solve_events = f.inum("traced_solve_events");
    s.exact_probe_problems = f.inum("exact_probe_problems");
    s.exact_probe_nodes = static_cast<std::int64_t>(f.num("exact_probe_nodes"));
  } else if (spec.kind == "sweep") {
    SweepSpec& s = spec.sweep;
    s.fraction_lo = f.num("fraction_lo");
    s.fraction_hi = f.num("fraction_hi");
    s.fraction_step = f.num("fraction_step");
    s.node_cap = static_cast<std::int64_t>(f.num("node_cap"));
    s.max_workers = f.inum("max_workers");
    s.exact_probe_points = f.inum("exact_probe_points");
    const Json* probe = w->find("serving_probe");
    if (probe == nullptr || !probe->is_string()) {
      return Status{Code::kInvalid, name + ": missing serving_probe"};
    }
    spec.serving_probe = probe->as_string();
  } else {
    return Status{Code::kInvalid, name + ": kind must be serve or sweep"};
  }
  if (Status st = f.status(name); !st.is_ok()) return st;
  return spec;
}

StatusOr<std::vector<std::string>> load_metric_names(
    const std::string& benchmark_json, const std::string& section) {
  auto text = mfa::io::read_file(benchmark_json);
  if (!text.is_ok()) return text.status();
  auto doc = Json::parse(text.value());
  if (!doc.is_ok()) return doc.status();
  const Json* list = doc.value().find(section);
  if (list == nullptr || !list->is_array()) {
    return Status{Code::kInvalid, "BENCHMARK.json: no " + section};
  }
  std::vector<std::string> names;
  for (std::size_t i = 0; i < list->size(); ++i) {
    const Json* n = list->at(i).find("name");
    if (n == nullptr || !n->is_string()) {
      return Status{Code::kInvalid, "BENCHMARK.json: unnamed metric"};
    }
    names.push_back(n->as_string());
  }
  return names;
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

Status fresh_dir(const std::string& path) {
  remove_tree(path);
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) return Status{Code::kInvalid, "mkdir " + path + ": " + ec.message()};
  return Status{};
}

std::string events_body(const std::vector<mfa::service::Event>& events,
                        std::size_t begin, std::size_t end) {
  Json body = Json::object();
  body.set("schema_version", Json::number(mfa::io::kSchemaVersion));
  Json list = Json::array();
  for (std::size_t i = begin; i < end; ++i) {
    list.push_back(mfa::io::to_json(events[i]));
  }
  body.set("events", std::move(list));
  return body.dump() + "\n";
}

}  // namespace e2e
