// mfallocd — the networked allocation daemon.
//
// Wires the full serving stack together: an epoll HTTP server
// (net/server.hpp) feeding the versioned wire API (net/api.hpp), which
// routes events across N AllocServer shards by consistent hashing
// (service/shard_router.hpp), each shard durable through its own
// write-ahead log (service/wal.hpp) when --data is set.
//
//   mfallocd --platform trace.json --data /var/lib/mfa --shards 2
//   ...
//   kill -9 $pid                      # crash mid-stream
//   mfallocd --recover --data /var/lib/mfa --shards 2
//
// After --recover the incumbent allocation is byte-identical to an
// uninterrupted run over the same acknowledged events (the crash-
// recovery CI job asserts exactly that), and a client can resume a
// partially-posted trace with `mfalloc_cli post --resume`.
//
// The first stdout line is machine-scrapable: "mfallocd listening on
// <port>" — with --port 0 that is how scripts learn the ephemeral
// port. SIGINT/SIGTERM shut down cleanly (drain, join, exit 0).
#include <signal.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "cli/args.hpp"
#include "cli/commands.hpp"
#include "io/serialize.hpp"
#include "net/api.hpp"
#include "net/server.hpp"
#include "service/shard_router.hpp"

namespace {

/// Initial pool from --platform: a bare platform JSON object, or any
/// document (problem, trace) carrying a "platform" member.
mfa::StatusOr<mfa::core::Platform> load_platform(const std::string& path) {
  auto text = mfa::io::read_file(path);
  if (!text.is_ok()) return text.status();
  auto doc = mfa::io::Json::parse(text.value());
  if (!doc.is_ok()) return doc.status();
  const mfa::io::Json* platform = doc.value().find("platform");
  return mfa::io::platform_from_json(platform != nullptr ? *platform
                                                         : doc.value());
}

}  // namespace

int main(int argc, char** argv) {
  mfa::cli::ArgParser args = mfa::cli::mfallocd_parser("mfallocd");
  if (mfa::Status st = args.parse(argc - 1, argv + 1); !st.is_ok()) {
    std::fprintf(stderr, "error: %s\n%s\n", st.message().c_str(),
                 args.usage_line().c_str());
    return 2;
  }
  if (args.help_requested()) {
    std::fputs(args.help_text().c_str(), stdout);
    return 0;
  }

  mfa::service::RouterOptions options;
  options.wal_root = args.value_or("data", "");
  const auto shards = args.int_or("shards", 2, 1, 256);
  const auto snapshot_every = args.int_or("snapshot-every", 256, 0, 1 << 30);
  const auto port = args.int_or("port", 8080, 0, 65535);
  const auto max_moves = args.int_or("max-moves", -1, -1, 1 << 30);
  const auto max_disturbed = args.int_or("max-disturbed", -1, -1, 1 << 30);
  for (const auto* v :
       {&shards, &snapshot_every, &port, &max_moves, &max_disturbed}) {
    if (!v->is_ok()) {
      std::fprintf(stderr, "error: %s\n", v->status().message().c_str());
      return 2;
    }
  }
  options.shards = static_cast<std::size_t>(shards.value());
  options.server.snapshot_every =
      static_cast<std::size_t>(snapshot_every.value());
  options.server.wal_fsync = !args.flag_set("no-fsync");
  options.server.max_moves = static_cast<int>(max_moves.value());
  options.server.max_disturbed = static_cast<int>(max_disturbed.value());

  // SIGINT/SIGTERM are consumed synchronously below; mask them first so
  // every thread the stack spawns inherits the mask.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  mfa::StatusOr<std::unique_ptr<mfa::service::ShardRouter>> router =
      [&]() -> mfa::StatusOr<std::unique_ptr<mfa::service::ShardRouter>> {
    if (args.flag_set("recover")) {
      if (options.wal_root.empty()) {
        return mfa::Status{mfa::Code::kInvalid,
                           "--recover needs --data <dir>"};
      }
      return mfa::service::ShardRouter::recover(std::move(options));
    }
    const std::string platform_path = args.value_or("platform", "");
    if (platform_path.empty()) {
      return mfa::Status{mfa::Code::kInvalid,
                         "--platform <file.json> is required (or --recover)"};
    }
    auto platform = load_platform(platform_path);
    if (!platform.is_ok()) return platform.status();
    return mfa::service::ShardRouter::open(platform.value(),
                                           std::move(options));
  }();
  if (!router.is_ok()) {
    std::fprintf(stderr, "error: %s\n",
                 router.status().to_string().c_str());
    return 1;
  }

  mfa::net::Api api(router.value().get());
  mfa::net::ServerConfig config;
  config.bind_address = args.value_or("bind", "127.0.0.1");
  config.port = static_cast<std::uint16_t>(port.value());
  mfa::net::HttpServer server(
      config, [&api](const mfa::net::HttpRequest& request) {
        return api.handle(request);
      });
  if (mfa::Status st = server.start(); !st.is_ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 1;
  }
  std::printf("mfallocd listening on %u\n",
              static_cast<unsigned>(server.port()));
  std::printf("shards=%zu wal=%s%s\n", router.value()->num_shards(),
              args.value_or("data", "(none)").c_str(),
              args.flag_set("recover") ? " (recovered)" : "");
  std::fflush(stdout);

  int sig = 0;
  sigwait(&signals, &sig);
  std::fprintf(stderr, "mfallocd: signal %d, shutting down\n", sig);
  server.stop();
  router.value()->stop();
  return 0;
}
