// idxl-served — the always-on multi-tenant session server.
//
// Wraps a RuntimeApi backend (local by default; IDXL_BACKEND=sharded picks
// control replication over in-process ranks) in a ServiceRuntime and
// serves launch streams from many concurrent clients over TCP or a Unix
// socket. SIGTERM/SIGINT trigger a graceful drain: in-flight launches
// finish, pending fences are answered, then every session closes. See
// docs/SERVICE.md.
//
// Usage:
//   idxl-served --listen <port>          # TCP on 127.0.0.1:<port> (0 = ephemeral)
//   idxl-served --listen-unix <path>     # AF_UNIX at <path>
//   idxl-served ... --max-in-flight <n> --max-region-mb <n> --max-sessions <n>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <exception>
#include <string>

#include "dist/backend.hpp"
#include "service/service_runtime.hpp"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_release); }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--listen <port> | --listen-unix <path>)"
               " [--max-in-flight <n>] [--max-region-mb <n>]"
               " [--max-sessions <n>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int port = -1;
  std::string unix_path;
  idxl::service::ServiceConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--listen" && i + 1 < argc) {
      port = std::atoi(argv[++i]);
    } else if (arg == "--listen-unix" && i + 1 < argc) {
      unix_path = argv[++i];
    } else if (arg == "--max-in-flight" && i + 1 < argc) {
      config.quota.max_in_flight = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else if (arg == "--max-region-mb" && i + 1 < argc) {
      config.quota.max_region_bytes =
          static_cast<uint64_t>(std::atoll(argv[++i])) << 20;
    } else if (arg == "--max-sessions" && i + 1 < argc) {
      config.max_sessions = static_cast<uint32_t>(std::atoi(argv[++i]));
    } else {
      return usage(argv[0]);
    }
  }
  if ((port < 0) == unix_path.empty()) return usage(argv[0]);

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  try {
    idxl::service::ServiceRuntime service(idxl::dist::make_runtime(), config);
    if (unix_path.empty()) {
      const uint16_t bound = service.listen_tcp(static_cast<uint16_t>(port));
      // Announce the bound port (ephemeral-port runs scrape this line).
      std::printf("idxl-served listening on 127.0.0.1:%u\n",
                  static_cast<unsigned>(bound));
    } else {
      service.listen_unix(unix_path);
      std::printf("idxl-served listening on %s\n", unix_path.c_str());
    }
    std::fflush(stdout);
    idxl::service::serve_until(service, g_stop);
    std::printf("idxl-served: draining\n");
    std::fflush(stdout);
    service.drain();
    std::printf("idxl-served: drained, exiting\n");
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "idxl-served: %s\n", e.what());
    return 1;
  }
}
