#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/clock.hpp"
#include "net/connection.hpp"
#include "dist/protocol.hpp"
#include "dist/replica.hpp"
#include "obs/trace_merge.hpp"
#include "runtime/runtime.hpp"

namespace idxl::dist {

/// Deterministic point → owning-rank map shared by every process of a run:
/// contiguous, balanced blocks of the row-major point enumeration. Domains
/// with at most one point (single launches, fills) live on rank 0.
inline uint32_t owner_of(const Domain& domain, const Point& p, uint32_t nranks) {
  const int64_t vol = domain.volume();
  if (vol <= 1 || nranks <= 1) return 0;
  const int64_t idx = domain.linear_index(p);
  return static_cast<uint32_t>(idx * static_cast<int64_t>(nranks) / vol);
}

/// The inverse of owner_of: the linear indices of `domain` that `rank`
/// owns, one run [first, second) (empty for a rank that owns none).
inline std::pair<int64_t, int64_t> owned_run(const Domain& domain, uint32_t rank,
                                             uint32_t nranks) {
  const int64_t vol = domain.volume();
  if (vol <= 1 || nranks <= 1) return {0, rank == 0 ? vol : 0};
  // owner_of(idx) >= r exactly when idx * nranks >= r * vol.
  const auto start = [&](int64_t r) { return (r * vol + nranks - 1) / nranks; };
  return {start(rank), start(static_cast<int64_t>(rank) + 1)};
}

struct DistConfig {
  /// Total process count, the driver included. 1 = degenerate local run.
  uint32_t ranks = 2;
  /// Per-process local runtime configuration (thread-pool width, watchdog,
  /// fault plan ...). The distributed hooks are installed on top.
  RuntimeConfig runtime;
  /// Exec mode: `host:port` of a pre-started `idxl-noded --listen` per
  /// worker rank (ranks - 1 entries). Empty = the workers are started here,
  /// see `in_process`.
  std::vector<std::string> workers;
  /// Placement of locally started workers. False = fork mode: each worker
  /// rank is a child process forked before any thread exists, inheriting
  /// forest and task registrations by memory. True = in-process ranks (the
  /// `sharded` backend): each worker rank is a thread of this process with a
  /// private forest rebuilt from the setup journal, and runtime.workers == 0
  /// means one pool thread per rank rather than one per core. Both talk over
  /// the same socketpair links and wire protocol.
  bool in_process = false;
  uint32_t heartbeat_period_ms = 1000;
  /// A peer silent past this window raises idxl_net_peer_stalls_total.
  uint32_t peer_stall_window_ms = 10000;
  /// Delta data plane (docs/DISTRIBUTED.md "Data plane"): every rank tracks
  /// which version of each (region, field, sub-rectangle) every rank holds
  /// and ships only stale spans to the rank that actually reads them. Off =
  /// the star-hub baseline: every task outcome carries its full written
  /// bytes to every rank. Auto-disabled beyond 64 ranks (the currency
  /// bitmask) — the star-hub path has no such limit.
  bool delta_transfers = true;
  /// Direct worker↔worker links for delta payloads (locally started workers
  /// only: exec daemons have no route to each other and always relay via
  /// the driver).
  bool p2p = true;
  /// Test hook: bring the peer links up, then sever them before first use,
  /// so delta payload sends genuinely fail over to the driver relay.
  bool fail_peer_links = false;
  /// Write the clock-aligned merged Chrome trace of every rank here at
  /// shutdown (forces profiling on in every process). The IDXL_TRACE env
  /// var overrides: "1" means "idxl_trace.json", any other value is the
  /// path, "0"/unset defers to this field.
  std::string trace_path;
};

/// Dynamic control replication over ranks that are forked processes,
/// remote daemons or threads of this process (DistConfig::in_process). The
/// driver (rank 0) broadcasts every launch as its O(1) serialized
/// descriptor; every rank issues the identical stream into its Replica,
/// whose point_owned hook carves out the rank's block of each launch
/// domain. Non-owned points become external graph nodes completed by
/// kTaskDone messages, so dependences, retries, poison propagation and
/// fault injection all run with full fidelity on the owning rank and
/// replicate as data everywhere else. On the delta data plane every Replica
/// also plans the launch's transfers from its own version map, so the plan
/// costs no message. The driver runs as rank 0 of the same Replica every
/// worker runs; this class adds what only rank 0 does: starting ranks, the
/// launch broadcast, the outcome and payload relay, fences and the cluster
/// views.
///
/// Setup (forest construction, register_task) must happen before the first
/// launch: the first launch freezes setup, starts/handshakes the workers and
/// ships the bootstrap state. Later launches throw RuntimeError if the
/// driver's forest has changed since in a way the workers cannot mirror.
class DistributedRuntime : public RuntimeApi {
 public:
  explicit DistributedRuntime(DistConfig config = {});
  ~DistributedRuntime() override;

  RegionForest& forest() override { return *forest_; }
  TaskFnId register_task(std::string name, TaskFn fn) override;
  LaunchResult execute(const TaskLauncher& launcher) override;
  LaunchResult execute_index(const IndexLauncher& launcher) override;
  void wait_all() override;
  FaultReport fault_report() const override;
  RuntimeStats stats() const override;
  obs::MetricsRegistry& metrics() override;
  /// Recall before a direct read: in delta mode most root data lives only on
  /// the rank that produced it. One payload-free kRecall has every rank plan
  /// the transfers bringing each stale span back to rank 0; then fence.
  void sync_for_read() override;
  void fill_bytes_region(RegionId r, FieldId f, const void* pattern,
                         std::size_t size) override;

  uint32_t ranks() const { return config_.ranks; }
  bool in_process() const { return config_.in_process; }
  bool started() const { return started_; }
  /// Effective data-plane mode (delta can be auto-disabled; see DistConfig).
  bool delta_transfers() const { return delta_; }

  /// Fence, then return run-wide data-plane byte counters (bench/CI gate):
  /// each rank's counters, from rank 0's registry and every worker's last
  /// fence-ack snapshot, summed — the rank="all" rows of cluster_metrics().
  DataPlaneStats data_plane_stats();

  /// Fence, then aggregate every rank's metrics into one snapshot: each
  /// series gains a `rank` label and per-family roll-ups appear under
  /// rank="all" (obs::aggregate_cluster). Worker snapshots ride the fence
  /// acks, so the view is current as of this call's fence.
  obs::MetricsSnapshot cluster_metrics();
  /// cluster_metrics() rendered as one Prometheus exposition / JSON doc.
  std::string cluster_prometheus();
  std::string cluster_metrics_json();

  /// Fence, pull every rank's spans + lifecycle tail (kTelemetryReq), and
  /// assemble the clock-aligned cluster trace. Rank 0 is the driver's own
  /// event log; worker clocks are aligned with the heartbeat-probe offset
  /// estimates. Requires profiling enabled to carry spans.
  obs::ClusterTrace collect_cluster_trace();
  /// collect_cluster_trace() written as a merged Chrome trace file.
  void write_merged_trace(const std::string& path);

  /// Merged stall dump over the driver's own waits-for graph and the latest
  /// stall push from each worker's watchdog; names the blocking rank when
  /// the evidence is conclusive (obs::merged_stall_dump). Also emitted to
  /// stderr automatically when the driver's own watchdog declares a stall.
  std::string distributed_stall_dump();

  /// Clock-offset estimate for a worker rank (heartbeat probes; invalid
  /// until the first pong or for rank 0 / unknown ranks).
  net::ClockEstimate clock_estimate(uint32_t rank) const {
    return replica_ != nullptr ? replica_->clock_estimate(rank) : net::ClockEstimate{};
  }

  /// The driver's local runtime (tests: counters, event log).
  /// Valid only after the first launch.
  Runtime& local() { return replica_->runtime(); }

 private:
  void ensure_started();
  /// Start (fork, or spawn as threads) or connect to (exec mode) the
  /// workers; returns the driver-side socket of each, in worker-index
  /// order. Fork mode must run before any thread exists in this process.
  std::vector<net::Socket> start_local_workers();
  std::vector<net::Socket> start_exec_workers();
  void on_worker_frame(std::size_t worker, net::Frame& frame);
  void on_worker_close(std::size_t worker, const std::string& error);
  void broadcast(Msg type, const std::vector<std::byte>& payload);
  /// Fence all ranks; returns false (instead of throwing) on peer loss or
  /// report divergence when `nothrow` — the destructor path. `metrics` has
  /// every worker ack with its metrics snapshot (the cluster views).
  bool fence(bool nothrow, bool metrics = false);
  /// Stop and reap every worker, then drop the driver runtime.
  void shutdown();
  /// Write the merged trace if requested, fence, then kShutdown every
  /// worker and close its link.
  void stop_workers();
  /// The pre-launch state a worker without fork inheritance rebuilds from.
  Setup make_setup() const;
  std::string fault_plan_spec() const;
  std::size_t closed_count_locked() const;
  /// Throw unless the driver's forest still matches every worker's.
  void require_replicated_forest() const;

  DistConfig config_;
  std::shared_ptr<RegionForest> forest_;
  std::vector<std::pair<std::string, TaskFn>> tasks_;
  TaskFnId fill_task_ = UINT32_MAX;
  TaskFnId xfer_task_ = UINT32_MAX;

  bool started_ = false;
  bool delta_ = false;  ///< effective mode, fixed at ensure_started()
  /// Forest setup-journal length every rank has replayed or mirrored.
  std::size_t replicated_setup_ops_ = 0;
  std::string trace_path_;  ///< effective (config + IDXL_TRACE), see DistConfig
  std::unique_ptr<Replica> replica_;  ///< rank 0
  std::vector<std::unique_ptr<net::Connection>> conns_;  // worker rank r -> [r-1]
  std::unique_ptr<net::PeerMonitor> monitor_;
  std::vector<pid_t> children_;        ///< fork mode
  std::vector<std::thread> rank_threads_;  ///< in-process mode

  /// Driver-bound transfer payloads (kRegionData, dest 0) parked until the
  /// sender's slim kTaskDone completes the node (see on_worker_frame).
  std::mutex xdata_mu_;
  std::unordered_map<uint64_t, RegionData> driver_data_;

  std::mutex fence_mu_;
  std::condition_variable fence_cv_;
  uint64_t next_fence_ = 0;
  /// fence id -> acks received (worker index -> ack)
  std::map<uint64_t, std::map<std::size_t, FenceAck>> fence_acks_;
  /// Latest metrics snapshot per worker index, from the acks of fences that
  /// asked for one (fence_mu_).
  std::vector<obs::MetricsSnapshot> worker_metrics_;
  /// Shutdown-pull traces by rank, answering kTelemetryReq; rank 0's own
  /// joins them at collection (fence_mu_).
  std::map<uint32_t, obs::RankTrace> telemetry_;
  /// Latest stall push per rank from worker watchdogs; rank 0's own is
  /// taken at each dump (fence_mu_).
  std::map<uint32_t, obs::RankStall> stall_push_;
  std::vector<std::string> peer_errors_;  // non-empty entry = worker trouble
  std::vector<bool> worker_closed_;       // recv loop ended (clean or not)
  std::size_t hello_acks_ = 0;
  bool tearing_down_ = false;
};

}  // namespace idxl::dist
