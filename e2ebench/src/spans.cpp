#include "spans.hpp"

#include <cstdio>
#include <cstring>
#include <string>

#include "io/serialize.hpp"

namespace e2e {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

long Tracer::open(const char* name, std::uint64_t id) {
  if (!enabled_) return -1;
  const std::thread::id me = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  auto [tid, fresh] = thread_ids_.emplace(
      me, static_cast<std::uint32_t>(thread_ids_.size()));
  (void)fresh;
  auto top = open_.find(me);
  Span span;
  span.name = name;
  span.parent = top == open_.end() ? -1 : top->second;
  span.id = id;
  span.thread = tid->second;
  spans_.push_back(span);
  const long index = static_cast<long>(spans_.size()) - 1;
  open_[me] = index;
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::close(long index) {
  if (index < 0) return;
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = end;
  const std::thread::id me = std::this_thread::get_id();
  if (span.parent < 0) {
    open_.erase(me);
  } else {
    open_[me] = span.parent;
  }
}

void Tracer::add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<double> Tracer::durations(const std::string& name,
                                      double ns_per_unit) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && name == s.name) {
      out.push_back(static_cast<double>(s.duration_ns()) / ns_per_unit);
    }
  }
  return out;
}

std::vector<double> Tracer::self_times(const std::string& name,
                                       double ns_per_unit) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.duration_ns();
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns != 0 && name == s.name) {
      out.push_back(static_cast<double>(s.duration_ns() - child_ns[i]) /
                    ns_per_unit);
    }
  }
  return out;
}

std::map<std::uint64_t, double> Tracer::by_id(const std::string& name,
                                              double ns_per_unit) const {
  std::map<std::uint64_t, double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && name == s.name) {
      out[s.id] = static_cast<double>(s.duration_ns()) / ns_per_unit;
    }
  }
  return out;
}

mfa::Status Tracer::write_tsv(const std::string& path) const {
  std::string text = "name\tid\tstart_ns\tend_ns\tparent\tthread\n";
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof(line), "%s\t%llu\t%lld\t%lld\t%ld\t%u\n",
                  s.name, static_cast<unsigned long long>(s.id),
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns), s.parent, s.thread);
    text += line;
  }
  return mfa::io::write_file(path, text);
}

}  // namespace e2e
