#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/clock.hpp"
#include "net/connection.hpp"
#include "dist/protocol.hpp"
#include "runtime/runtime.hpp"

namespace idxl::dist {

/// Everything a worker needs to participate in the delta data plane. Fork
/// mode and in-process ranks fill `peers` with socketpair ends; exec mode
/// has no route between daemons and leaves it empty (payloads relay via
/// the driver).
struct WorkerDataPlane {
  bool delta = false;            ///< slim outcomes + kRoute/kRegionData
  bool p2p = false;              ///< direct worker links were provisioned
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

/// One worker rank's half of the protocol: a local Runtime issued from
/// the driver's replicated launch stream. The receive loop runs on the
/// calling thread and doubles as the issuing thread, so issuance stays
/// single-threaded by construction; owned-task outcomes flow back through
/// the connection's async send queue.
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
  /// on_task_success arm for the transfer task: extract the routed rect,
  /// push it to the destination (direct link first, driver relay as the
  /// fallback), then announce a slim outcome upward.
  void send_xfer_data(uint64_t seq, uint64_t launch, TaskContext& ctx);
  /// A kRegionData payload for this rank (direct or driver-relayed):
  /// complete the external transfer node with its patches.
  void apply_region_data(RegionData rd);
  net::Connection* peer_conn(uint32_t rank);
  /// Answer a clock probe riding a kPing frame from `peer_rank`; the reply
  /// (a pong, when the probe was a ping) goes back on `conn`.
  void handle_ping(uint32_t peer_rank, net::Connection& conn,
                   const std::vector<std::byte>& payload);
  /// This rank's observability state for the driver (kTelemetry payload).
  Telemetry make_telemetry(TelemetryFlavor flavor);

  uint32_t rank_;
  uint32_t nranks_;
  WorkerDataPlane dp_;  ///< peers moved out into peers_ at construction
  FullOutcomeLaunches full_launches_;
  std::unique_ptr<Runtime> rt_;
  std::unique_ptr<net::Connection> conn_;
  /// Direct links, (peer worker rank, connection); frames arrive on each
  /// link's own receive thread, feeding complete_external only — never
  /// issuance, which stays on the driver-connection thread.
  std::vector<std::pair<uint32_t, std::unique_ptr<net::Connection>>> peers_;
  std::unique_ptr<net::PeerMonitor> monitor_;
  uint32_t heartbeat_ms_;
  uint32_t window_ms_;

  /// Data-plane accounting, reported cumulatively on every fence ack.
  /// Atomics: success hooks fire on pool threads.
  struct NetCells {
    std::atomic<uint64_t> bytes_hub{0};
    std::atomic<uint64_t> bytes_relay{0};
    std::atomic<uint64_t> bytes_p2p{0};
    std::atomic<uint64_t> transfers{0};
  } net_;
  obs::Histogram xfer_size_, xfer_latency_;

  /// Per-peer clock-offset estimates from probes riding the heartbeats.
  std::unique_ptr<net::ClockTable> clocks_;
  /// Interned event-log names for the remote-parent apply spans.
  uint32_t name_xfer_apply_ = 0;
  uint32_t name_done_apply_ = 0;
};

}  // namespace idxl::dist
