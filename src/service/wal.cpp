#include "service/wal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <utility>

#include "io/serialize.hpp"

namespace mfa::service {
namespace {

constexpr const char* kLogName = "wal.log";
constexpr const char* kSnapshotName = "snapshot.json";

Status errno_status(const std::string& what) {
  return Status{Code::kInvalid, what + ": " + std::strerror(errno)};
}

/// Writes the whole buffer, retrying short writes and EINTR.
Status write_all(int fd, std::string_view bytes, const std::string& what) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status(what);
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

/// fsync the directory itself so a rename/creat inside it is durable.
Status sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return errno_status("open dir " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return errno_status("fsync dir " + dir);
  return Status::ok();
}

}  // namespace

StatusOr<Wal> Wal::create(const std::string& dir,
                          const core::Platform& initial_platform,
                          Options options) {
  if (dir.empty()) return Status{Code::kInvalid, "wal: empty directory"};
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return errno_status("mkdir " + dir);
  }
  const std::string snapshot = dir + "/" + kSnapshotName;
  if (::unlink(snapshot.c_str()) != 0 && errno != ENOENT) {
    return errno_status("unlink " + snapshot);
  }
  const std::string path = dir + "/" + kLogName;
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) return errno_status("open " + path);
  Wal wal(dir, fd, options);
  const std::string header =
      io::wal_header_to_json(initial_platform).dump() + "\n";
  if (Status s = write_all(fd, header, "write " + path); !s.is_ok()) {
    return s;
  }
  if (options.fsync) {
    if (::fsync(fd) != 0) return errno_status("fsync " + path);
    if (Status s = sync_dir(dir); !s.is_ok()) return s;
  }
  return wal;
}

StatusOr<Wal> Wal::open(const std::string& dir, std::uint64_t valid_bytes,
                        Options options) {
  const std::string path = dir + "/" + kLogName;
  const int fd = ::open(path.c_str(), O_RDWR | O_APPEND);
  if (fd < 0) return errno_status("open " + path);
  Wal wal(dir, fd, options);
  if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0) {
    return errno_status("truncate " + path);
  }
  // A final record cut just before its newline still parsed and was
  // kept; end its line so the next record does not run into it.
  char last = '\n';
  if (valid_bytes > 0 &&
      ::pread(fd, &last, 1, static_cast<off_t>(valid_bytes - 1)) != 1) {
    return errno_status("read " + path);
  }
  if (last != '\n') {
    if (Status s = write_all(fd, "\n", "write " + path); !s.is_ok()) {
      return s;
    }
  }
  if (options.fsync && ::fsync(fd) != 0) return errno_status("fsync " + path);
  return wal;
}

StatusOr<WalRecovery> Wal::load(const std::string& dir) {
  StatusOr<std::string> text = io::read_file(dir + "/" + kLogName);
  if (!text.is_ok()) return text.status();

  WalRecovery recovery;
  std::vector<WalRecord> records;
  const std::string& bytes = text.value();
  std::size_t line_start = 0;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (line_start < bytes.size()) {
    std::size_t end = bytes.find('\n', line_start);
    // A line without its terminating newline can only be a torn final
    // append; so can a line that has the newline but fails to parse
    // (the kernel may pad a torn block with zeros or the crash landed
    // mid-fsync). Either way it must be the LAST line to be forgiven.
    const bool torn_candidate = end == std::string::npos;
    const std::string_view line(
        bytes.data() + line_start,
        (torn_candidate ? bytes.size() : end) - line_start);
    const std::size_t next =
        torn_candidate ? bytes.size() : end + 1;
    const bool is_last = next >= bytes.size();

    Status parse_error = Status::ok();
    StatusOr<io::Json> doc = io::Json::parse(line);
    if (!doc.is_ok()) {
      parse_error = doc.status();
    } else if (!saw_header) {
      StatusOr<core::Platform> header =
          io::wal_header_from_json(doc.value());
      if (!header.is_ok()) {
        parse_error = header.status();
      } else {
        recovery.initial_platform = std::move(header.value());
        saw_header = true;
      }
    } else {
      StatusOr<WalRecord> record = io::wal_record_from_json(doc.value());
      // Sequences must be strictly increasing but may have gaps: an
      // event whose append failed consumed a sequence number without
      // ever reaching the log (and was not applied).
      if (!record.is_ok()) {
        parse_error = record.status();
      } else if (!records.empty() &&
                 record.value().sequence <= records.back().sequence) {
        parse_error = Status{
            Code::kInvalid,
            "wal: record out of sequence (got " +
                std::to_string(record.value().sequence) + " after " +
                std::to_string(records.back().sequence) + ")"};
      } else {
        records.push_back(std::move(record.value()));
      }
    }
    if (!parse_error.is_ok()) {
      if (is_last && saw_header) break;  // torn tail: drop and stop
      return Status{Code::kInvalid, "wal line " + std::to_string(line_no) +
                                        ": " + parse_error.message()};
    }
    recovery.valid_bytes = next;
    line_start = next;
    ++line_no;
  }
  if (!saw_header) {
    return Status{Code::kInvalid, "wal: empty or headerless log"};
  }
  recovery.next_sequence =
      records.empty() ? 0 : records.back().sequence + 1;

  // Optional snapshot; ignored (with a full replay instead) only when
  // absent — a *corrupt* snapshot is an error, because silently
  // replaying the world would mask it.
  StatusOr<std::string> snap_text =
      io::read_file(dir + "/" + kSnapshotName);
  if (snap_text.is_ok()) {
    StatusOr<io::Json> doc = io::Json::parse(snap_text.value());
    if (!doc.is_ok()) {
      return Status{Code::kInvalid,
                    "wal snapshot: " + doc.status().message()};
    }
    StatusOr<WalSnapshot> snapshot = io::wal_snapshot_from_json(doc.value());
    if (!snapshot.is_ok()) return snapshot.status();
    if (snapshot.value().sequence > recovery.next_sequence) {
      return Status{Code::kInvalid,
                    "wal snapshot: ahead of the log (snapshot seq " +
                        std::to_string(snapshot.value().sequence) +
                        ", log ends at " +
                        std::to_string(recovery.next_sequence) + ")"};
    }
    recovery.snapshot = std::move(snapshot.value());
  }

  // Tail = everything at or after the snapshot point (records strictly
  // before it are already folded into the snapshotted workload).
  auto from = records.begin();
  if (recovery.snapshot) {
    from = std::find_if(records.begin(), records.end(),
                        [&](const WalRecord& r) {
                          return r.sequence >= recovery.snapshot->sequence;
                        });
  }
  recovery.tail.assign(std::make_move_iterator(from),
                       std::make_move_iterator(records.end()));
  return recovery;
}

Wal::Wal(Wal&& other) noexcept
    : dir_(std::move(other.dir_)),
      fd_(std::exchange(other.fd_, -1)),
      options_(other.options_) {}

Wal& Wal::operator=(Wal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    dir_ = std::move(other.dir_);
    fd_ = std::exchange(other.fd_, -1);
    options_ = other.options_;
  }
  return *this;
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

Status Wal::append(const std::vector<WalRecord>& records) {
  if (fd_ < 0) return Status{Code::kInvalid, "wal: not open"};
  std::string lines;
  for (const WalRecord& record : records) {
    lines += io::to_json(record).dump();
    lines += '\n';
  }
  if (Status s = write_all(fd_, lines, "wal append"); !s.is_ok()) return s;
  if (options_.fsync && ::fsync(fd_) != 0) {
    return errno_status("wal fsync");
  }
  return Status::ok();
}

Status Wal::append(std::uint64_t sequence, const Event& event) {
  std::vector<WalRecord> group;
  group.push_back(WalRecord{sequence, event});
  return append(group);
}

Status Wal::write_snapshot(const WalSnapshot& snapshot) {
  const std::string text = io::to_json(snapshot).dump(2) + "\n";
  return replace_file(dir_, kSnapshotName, text, options_.fsync);
}

Status replace_file(const std::string& dir, const std::string& name,
                    std::string_view bytes, bool fsync) {
  const std::string tmp = dir + "/" + name + ".tmp";
  const std::string final_path = dir + "/" + name;
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return errno_status("open " + tmp);
  Status s = write_all(fd, bytes, "write " + tmp);
  if (s.is_ok() && fsync && ::fsync(fd) != 0) {
    s = errno_status("fsync " + tmp);
  }
  ::close(fd);
  if (!s.is_ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), final_path.c_str()) != 0) {
    const Status rename_error = errno_status("rename " + tmp);
    ::unlink(tmp.c_str());
    return rename_error;
  }
  if (fsync) return sync_dir(dir);
  return Status::ok();
}

}  // namespace mfa::service
