#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/clock.hpp"
#include "net/connection.hpp"
#include "dist/protocol.hpp"
#include "dist/version_map.hpp"
#include "obs/trace_merge.hpp"
#include "runtime/runtime.hpp"

namespace idxl::dist {

/// Data-plane byte and transfer counts: one rank's, or a run's sum over
/// every rank.
struct DataPlaneStats {
  uint64_t bytes_hub = 0;    ///< full-block outcome payload bytes
  uint64_t bytes_relay = 0;  ///< delta patch bytes moved via the driver
  uint64_t bytes_p2p = 0;    ///< delta patch bytes on direct worker links
  uint64_t transfers = 0;    ///< kRegionData messages sent

  uint64_t bytes_delta() const { return bytes_relay + bytes_p2p; }
  uint64_t bytes_total() const { return bytes_hub + bytes_relay + bytes_p2p; }
  DataPlaneStats& operator+=(const DataPlaneStats& o) {
    bytes_hub += o.bytes_hub;
    bytes_relay += o.bytes_relay;
    bytes_p2p += o.bytes_p2p;
    transfers += o.transfers;
    return *this;
  }
};

/// The data-plane counters a Replica keeps in its runtime's registry
/// (`idxl_net_data_bytes_total{kind,route}`, `idxl_net_transfers_total`),
/// read back from a snapshot of that registry.
DataPlaneStats data_plane_of(const obs::MetricsSnapshot& metrics);

/// Send one frame; false when the link is down. Its owner reports the lost
/// peer (the driver at its next fence, a worker when its receive loop ends).
bool try_send(net::Connection& conn, Msg type, const std::vector<std::byte>& payload);

/// A connection and the rank at its far end.
struct RankLink {
  uint32_t rank = 0;
  net::Connection* conn = nullptr;
};

/// The connections one rank's replica sends over. A driver replica and a
/// worker replica differ only in these.
struct ReplicaLinks {
  /// Every slice of task outcomes (kTaskDone) goes out on each of these: the
  /// driver's links to its workers, or a worker's link to the driver.
  std::vector<RankLink> outcomes;
  /// The outcome link that forwards to every other rank (a worker's driver
  /// link), or null. A transfer's slim slice skips the outcome link to the
  /// payload's destination, whose copy is the payload, unless it relays.
  net::Connection* relay = nullptr;
  /// Links that carry a transfer payload straight to its destination rank:
  /// the driver's worker links, or a worker's direct peer links. A payload
  /// whose destination has no live direct link goes to `relay`.
  std::vector<RankLink> direct;
  /// Whether a payload sent on a `direct` link counts as p2p bytes (a
  /// worker's peer links) or relay bytes (the driver's links, which carry
  /// data moved via the driver). Payloads sent to `relay` count as relay.
  bool direct_is_p2p = true;
};

/// One rank's half of dynamic control replication, the same on the driver
/// (rank 0) and on every worker: the local Runtime issued from the
/// replicated launch stream, with hooks that keep the points this rank owns
/// and ship their outcomes — slices of kTaskDone, and the planned rects of
/// transfer tasks down the direct-link-then-relay ladder — plus the
/// completion of remote outcomes, clock-probe answers, the rank's
/// data-plane counters (in its runtime's metrics registry) and its
/// telemetry.
///
/// A launch is *sliced* when it runs as an index launch on the delta plane,
/// does not alias across ranks and writes no sparse footprint: its points
/// cannot wait on each other, and each ships a slim outcome. The replica
/// then holds back the outcomes of the launch's points it owns and sends
/// them as one slice once the last of them has settled. Every other outcome
/// goes out at once as a slice of one: single and transfer tasks, a task
/// loop's points (which can wait on each other across ranks), and outcomes
/// that carry region bytes.
///
/// On the delta data plane each replica also plans: it keeps its own
/// VersionMap and, from its copy of the launch stream, issues the transfer
/// tasks every launch's reads need ahead of the launch. Every rank runs the
/// same plan, so no rank sends another a routing message. A rank whose plan
/// issued a different number of transfers fails at its next replicated
/// descriptor, which carries the launch id rank 0 assigned.
class Replica {
 public:
  /// Builds the local Runtime over `forest` and registers `tasks` in order.
  /// `delta` selects the delta data plane; `xfer_task` is the id of the
  /// replicated transfer task on it.
  Replica(uint32_t rank, uint32_t nranks, RuntimeConfig config,
          std::shared_ptr<RegionForest> forest,
          const std::vector<std::pair<std::string, TaskFn>>& tasks, bool delta,
          TaskFnId xfer_task);
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Set the links outcomes and payloads go out on. Call once, before the
  /// first launch; the links must outlive every task this replica runs.
  void attach(ReplicaLinks links) { links_ = std::move(links); }

  Runtime& runtime() { return *rt_; }

  /// Rank 0's hook between planning a launch and issuing it: called with
  /// the launcher stamped with the launch id rank 0 is about to take, so
  /// the driver can broadcast it before rank 0 expands the launch.
  template <class Launcher>
  using Announce = std::function<void(const Launcher&)>;

  /// Issue a replicated index launch. The runtime resolves it first
  /// (Runtime::resolve), so a launcher it refuses throws before any effect.
  /// On the delta plane, from that resolution: decide whether its points
  /// alias across ranks (then every owned point ships its full outcome),
  /// plan every point and issue the planned transfers. Then `announce`, if
  /// set, and the launch, whose own launch id the runtime checks against
  /// the stamp.
  LaunchResult execute_index(IndexLauncher launcher,
                             const Announce<IndexLauncher>& announce = {});
  /// Issue a replicated single task, resolved, planned and announced the
  /// same way.
  LaunchResult execute(TaskLauncher launcher, const Announce<TaskLauncher>& announce = {});
  /// Delta plane: issue the transfers bringing every span another rank
  /// produced back to rank 0, so a direct read of rank 0's forest sees
  /// current data.
  void recall();
  /// wait_all(); every success hook has then run, so the full-outcome
  /// launch set is dropped.
  void quiesce();

  /// Complete the external nodes a kTaskDone slice names (one `done-apply`
  /// span per slice).
  void apply_done(TaskDone done);
  /// Complete a transfer node from its payload (`xfer-apply` span, and the
  /// send-to-apply latency histogram).
  void apply_data(RegionData data);
  /// Answer a clock probe riding a kPing from `peer_rank` on `conn`: a ping
  /// gets a stamped pong back, a pong updates that peer's offset estimate.
  void answer_probe(uint32_t peer_rank, net::Connection& conn,
                    const std::vector<std::byte>& payload);
  net::ClockEstimate clock_estimate(uint32_t peer_rank) const {
    return clocks_->estimate(peer_rank);
  }

  /// Count bytes this rank forwarded on others' behalf (the driver's relay
  /// legs): route labels measure bytes on wires, once per hop.
  void count_forwarded(uint64_t hub_bytes, uint64_t relay_bytes);

  /// This rank's part of the cluster trace: event-log spans and task graph
  /// (when capturing) and the lifecycle tail. The clock fields are left to
  /// the driver.
  obs::RankTrace telemetry() const;
  /// This rank's evidence for the merged stall dump: the watchdog's report
  /// and the outcomes the rank is still owed.
  obs::RankStall stall_telemetry(const obs::StallReport& report) const;

 private:
  /// The outcomes this rank holds back for one sliced launch: the slice so
  /// far, and how many of its tasks have yet to settle.
  struct Held {
    TaskDone slice;
    uint32_t left = 0;
  };

  /// Delta plane: decide whether the launch's points alias across ranks,
  /// plan every point and issue the transfers. True when every point ships
  /// a slim outcome: no aliasing and no sparse write footprint.
  bool plan(const IndexLauncher& launcher, const Runtime::Resolution& res);
  /// Issue the transfer task of each planned transfer, in order.
  void issue(const std::vector<Transfer>& transfers);
  /// Record an owned task's outcome (`fault`, or a success returning `ret`)
  /// in its launch's held slice, and send the slice once it is whole. False
  /// when the launch is not held: the outcome goes out on its own.
  bool settle_held(uint64_t launch, uint64_t seq, double ret, const TaskFault* fault);

  void on_success(uint64_t seq, uint64_t launch, TaskContext& ctx);
  void on_fault(const TaskFault& fault);
  /// Transfer task: extract the planned rect, push it to the destination,
  /// then announce a slim outcome.
  void send_transfer(uint64_t seq, uint64_t launch, TaskContext& ctx);
  void send_outcome(const TaskDone& done);

  const uint32_t rank_;
  const uint32_t nranks_;
  const bool delta_;
  const TaskFnId xfer_task_;
  ReplicaLinks links_;
  FullOutcomeLaunches full_launches_;
  std::unique_ptr<net::ClockTable> clocks_;  ///< per-peer offset estimates
  /// Delta plane: this rank's coherence map. Only the issuing thread plans,
  /// so it needs no lock.
  std::unique_ptr<VersionMap> vmap_;
  /// Sliced launches with owned tasks still running, by launch id. Opened by
  /// the issuing thread before a launch expands, settled by the hooks on
  /// pool threads.
  std::mutex held_mu_;
  std::unordered_map<uint64_t, Held> held_;
  /// Interned event-log names of the remote-parent apply spans.
  uint32_t name_xfer_apply_ = 0;
  uint32_t name_done_apply_ = 0;

  /// Data-plane accounting in the runtime's registry: success hooks fire on
  /// pool threads, forwarding on link receive threads.
  obs::Counter bytes_hub_, bytes_relay_, bytes_p2p_, transfers_;
  obs::Histogram xfer_size_, xfer_latency_;
  /// Last member, so it is destroyed first: its final wait_all may still
  /// run the hooks, which use everything above.
  std::unique_ptr<Runtime> rt_;
};

}  // namespace idxl::dist
