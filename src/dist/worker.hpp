#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/connection.hpp"
#include "dist/protocol.hpp"
#include "dist/replica.hpp"
#include "runtime/runtime.hpp"

namespace idxl::dist {

/// Everything a worker needs to participate in the delta data plane. Fork
/// mode and in-process ranks fill `peers` with socketpair ends; exec mode
/// has no route between daemons and leaves it empty (payloads relay via
/// the driver).
struct WorkerDataPlane {
  bool delta = false;            ///< replicated planning, slim outcomes, kRegionData
  bool fail_peer_links = false;  ///< test hook: sever links before first use
  TaskFnId xfer_task = UINT32_MAX;
  /// (peer worker rank, socket) — one end of each of this worker's links.
  std::vector<std::pair<uint32_t, net::Socket>> peers;
};

/// A fresh forest mirroring the driver's pre-launch state: the setup journal
/// replayed (identical handles), then the root-region storage restored.
/// Exec-mode daemons and in-process ranks each build their private copy
/// this way.
std::shared_ptr<RegionForest> rebuild_forest(const Setup& setup);

/// One worker rank's half of the protocol: the rank's Replica, issued and,
/// on the delta plane, planned from the driver's replicated launch stream.
/// The receive loop runs on the calling thread and doubles as the issuing
/// thread, so issuance stays single-threaded by construction; owned-task
/// outcomes flow back through the connection's async send queue.
class WorkerSession {
 public:
  /// Fork mode: forest and task bodies were inherited from the parent.
  /// Exec mode and in-process ranks reach this with a rebuild_forest() copy.
  WorkerSession(net::Socket sock, uint32_t rank, uint32_t nranks,
                RuntimeConfig config, std::shared_ptr<RegionForest> forest,
                const std::vector<std::pair<std::string, TaskFn>>& tasks,
                uint32_t heartbeat_period_ms, uint32_t stall_window_ms,
                WorkerDataPlane data_plane = {});

  /// Exec mode (idxl-noded): read Hello + Setup off the socket, rebuild the
  /// forest from the journal, resolve task names against the named-task
  /// registry, then run. Returns when the driver sends kShutdown.
  static void serve(net::Socket sock);

  /// Process frames until kShutdown (or the driver vanishes).
  void run();

 private:
  void on_frame(net::Frame& frame);

  bool fail_peer_links_;
  std::unique_ptr<Replica> replica_;
  std::unique_ptr<net::Connection> conn_;
  /// Direct links, (peer worker rank, connection); frames arrive on each
  /// link's own receive thread, feeding complete_external only — never
  /// issuance, which stays on the driver-connection thread.
  std::vector<std::pair<uint32_t, std::unique_ptr<net::Connection>>> peers_;
  std::unique_ptr<net::PeerMonitor> monitor_;
  uint32_t heartbeat_ms_;
  uint32_t window_ms_;
};

}  // namespace idxl::dist
