#include "dist/worker.hpp"

#include <cstring>

#include "dist/task_registry.hpp"
#include "support/error.hpp"

namespace idxl::dist {

WorkerSession::WorkerSession(net::Socket sock, uint32_t rank, uint32_t nranks,
                             RuntimeConfig config,
                             std::shared_ptr<RegionForest> forest,
                             const std::vector<std::pair<std::string, TaskFn>>& tasks,
                             uint32_t heartbeat_period_ms, uint32_t stall_window_ms,
                             WorkerDataPlane data_plane)
    : fail_peer_links_(data_plane.fail_peer_links),
      heartbeat_ms_(heartbeat_period_ms),
      window_ms_(stall_window_ms) {
  replica_ = std::make_unique<Replica>(rank, nranks, std::move(config), std::move(forest),
                                       tasks, data_plane.delta, data_plane.xfer_task);
  net::NetObs obs;
  obs.metrics = &replica_->runtime().metrics();
  obs.log = &replica_->runtime().flight_recorder();
  obs.type_name = msg_name;
  conn_ = std::make_unique<net::Connection>(std::move(sock), "driver", obs);

  // Outcomes go up to the driver, which relays them; payloads take a direct
  // link when there is one, the driver relay otherwise.
  ReplicaLinks links;
  links.outcomes.push_back({0, conn_.get()});
  links.relay = conn_.get();
  // Each direct link's receive thread only completes external nodes, so it
  // cannot deadlock with the issuing (driver connection) thread.
  for (auto& [peer_rank, psock] : data_plane.peers) {
    auto pconn = std::make_unique<net::Connection>(
        std::move(psock), "peer-" + std::to_string(peer_rank), obs);
    net::Connection* raw = pconn.get();
    pconn->start_recv(
        [this, peer_rank = peer_rank, raw](net::Frame& frame) {
          if (frame.type == static_cast<uint8_t>(Msg::kRegionData))
            replica_->apply_data(decode_region_data(frame.payload));
          else if (frame.type == static_cast<uint8_t>(Msg::kPing))
            replica_->answer_probe(peer_rank, *raw, frame.payload);
          // anything else: liveness only.
        },
        [](const std::string&) {
          // A dead peer link only disables the direct path; transfers fall
          // back to the driver relay on the next send.
        });
    links.direct.push_back({peer_rank, raw});
    peers_.emplace_back(peer_rank, std::move(pconn));
  }
  replica_->attach(std::move(links));
  if (fail_peer_links_) {
    // Test hook: links exist, then die — every direct send now fails and
    // the relay fallback is genuinely exercised.
    for (auto& [peer_rank, c] : peers_) c->close();
  }

  // Distributed watchdog: a locally declared stall is pushed to the driver
  // (waits-for graph, recorder tail, metrics, and the seqs of outcomes this
  // rank is still owed), so the driver-side dump can merge all ranks and
  // name the one that is actually blocking.
  if (obs::Watchdog* wd = replica_->runtime().watchdog()) {
    // A lost driver gets no push; the local dump already went to stderr.
    wd->set_on_stall([this](const obs::StallReport& report) {
      try_send(*conn_, Msg::kTelemetry, encode_telemetry(replica_->stall_telemetry(report)));
    });
  }
}

void WorkerSession::run() {
  std::vector<net::Connection*> monitored{conn_.get()};
  for (auto& [peer_rank, c] : peers_)
    if (!fail_peer_links_) monitored.push_back(c.get());
  monitor_ = std::make_unique<net::PeerMonitor>(
      std::move(monitored), static_cast<uint8_t>(Msg::kPing), heartbeat_ms_,
      window_ms_, &replica_->runtime().metrics(), nullptr, &net::ClockTable::make_ping);
  conn_->send(static_cast<uint8_t>(Msg::kHelloAck), {});
  const std::string err =
      conn_->recv_loop([this](net::Frame& frame) { on_frame(frame); });
  monitor_->stop();
  // Whether the driver said goodbye or just vanished, nothing further will
  // arrive: resolve any still-pending externals so teardown cannot hang.
  Runtime& rt = replica_->runtime();
  rt.abandon_externals(err.empty() ? "driver connection closed" : err);
  rt.wait_all();
  for (auto& [peer_rank, c] : peers_) c->close();
  conn_->close();
}

void WorkerSession::on_frame(net::Frame& frame) {
  Runtime& rt = replica_->runtime();
  switch (static_cast<Msg>(frame.type)) {
    case Msg::kLaunch:
      replica_->execute_index(deserialize_launcher(frame.payload));
      break;
    case Msg::kSingle:
      replica_->execute(deserialize_task_launcher(frame.payload));
      break;
    case Msg::kRecall:
      replica_->recall();
      break;
    case Msg::kRegionData:
      // Driver-relayed delta payload for this rank.
      replica_->apply_data(decode_region_data(frame.payload));
      break;
    case Msg::kTaskDone:
      replica_->apply_done(decode_task_done(frame.payload));
      break;
    case Msg::kFence: {
      // Safe to fence on the receive thread: every outcome this rank's
      // externals need was forwarded before the fence on the same FIFO
      // connection (or arrives on an independent peer link), so wait_all()
      // cannot depend on an unread driver frame.
      const Fence fence = decode_fence(frame.payload);
      FenceAck ack;
      ack.fence = fence.id;
      replica_->quiesce();
      ack.report = rt.fault_report();
      // The metrics snapshot, the data-plane counters included, only when
      // the driver's cluster views asked for it: every wait_all fences.
      if (fence.metrics) ack.metrics = serialize_metrics_snapshot(rt.metrics().snapshot());
      conn_->send(static_cast<uint8_t>(Msg::kFenceAck), encode_fence_ack(ack));
      break;
    }
    case Msg::kTelemetryReq:
      // Only sent at quiescent moments (post-fence), so the span views read
      // a complete log from this — the issuing — thread.
      conn_->send(static_cast<uint8_t>(Msg::kTelemetry),
                  encode_telemetry(replica_->telemetry()));
      break;
    case Msg::kShutdown:
      conn_->send(static_cast<uint8_t>(Msg::kBye), {});
      conn_->drain();
      // Returns recv_loop cleanly; the driver closes its end after kBye.
      conn_->shutdown_read();
      break;
    case Msg::kPing:
      replica_->answer_probe(/*peer_rank=*/0, *conn_, frame.payload);
      break;
    default:
      IDXL_REQUIRE(false, "worker received unexpected frame type " +
                              std::to_string(frame.type) + " (" +
                              msg_name(frame.type) + ")");
  }
}

void WorkerSession::serve(net::Socket sock) {
  // Bootstrap frames (kHello, kSetup) are read synchronously off the raw
  // socket; the Connection takes over afterwards.
  net::FrameReader reader;
  std::vector<std::byte> buf(64 * 1024);
  auto next_frame = [&](net::Frame& out) {
    while (!reader.poll(out)) {
      const std::size_t n = sock.read_some(buf.data(), buf.size());
      IDXL_REQUIRE(n > 0, "driver closed the connection during bootstrap");
      reader.feed(buf.data(), n);
    }
  };

  net::Frame frame;
  next_frame(frame);
  IDXL_REQUIRE(frame.type == static_cast<uint8_t>(Msg::kHello),
               "expected hello frame, got " + std::string(msg_name(frame.type)));
  const Hello hello = decode_hello(frame.payload);
  IDXL_REQUIRE(hello.rank > 0 && hello.rank < hello.nranks,
               "hello assigns an invalid worker rank");

  next_frame(frame);
  IDXL_REQUIRE(frame.type == static_cast<uint8_t>(Msg::kSetup),
               "expected setup frame, got " + std::string(msg_name(frame.type)));
  const Setup setup = decode_setup(frame.payload);
  IDXL_REQUIRE(reader.pending_bytes() == 0,
               "unexpected data after bootstrap frames");

  std::vector<std::pair<std::string, TaskFn>> tasks;
  tasks.reserve(setup.tasks.size());
  for (const std::string& name : setup.tasks) {
    const TaskFn* fn = find_named_task(name);
    IDXL_REQUIRE(fn != nullptr,
                 "task '" + name +
                     "' is not registered in this daemon "
                     "(IDXL_DIST_REGISTER_TASK it and relink idxl-noded)");
    tasks.emplace_back(name, *fn);
  }

  // Hello carries only the pool width, profiling and the fault plan; every
  // other knob keeps its default here, the interference analysis (on)
  // included. A pair skip only elides a dependence walk that would find no
  // edge, so it never changes this rank's edges or region contents.
  RuntimeConfig rc;
  rc.workers = hello.workers;
  rc.enable_profiling = hello.enable_profiling != 0;
  if (!hello.fault_plan.empty())
    rc.fault_plan =
        std::make_shared<const FaultPlan>(FaultPlan::parse(hello.fault_plan));

  // Exec daemons have no direct route to each other: delta payloads always
  // relay through the driver.
  WorkerDataPlane dp;
  dp.delta = hello.delta_transfers != 0;
  if (dp.delta) {
    for (std::size_t i = 0; i < setup.tasks.size(); ++i)
      if (setup.tasks[i] == "idxl_xfer") dp.xfer_task = static_cast<TaskFnId>(i);
    IDXL_REQUIRE(dp.xfer_task != UINT32_MAX,
                 "delta transfers enabled but task 'idxl_xfer' is missing "
                 "from the setup task list");
  }

  WorkerSession session(std::move(sock), hello.rank, hello.nranks,
                        std::move(rc), rebuild_forest(setup), tasks,
                        hello.heartbeat_period_ms, hello.peer_stall_window_ms,
                        std::move(dp));
  session.run();
}

std::shared_ptr<RegionForest> rebuild_forest(const Setup& setup) {
  auto forest = std::make_shared<RegionForest>();
  forest->replay_setup(setup.journal);
  for (const Setup::Storage& st : setup.storage) {
    const RegionId rid{st.region};
    const RegionInfo& info = forest->region(rid);
    IDXL_REQUIRE(info.root == info.handle,
                 "setup storage names a non-root region");
    const std::size_t fsize = forest->field(info.fspace, st.field).size;
    const std::size_t expect =
        static_cast<std::size_t>(forest->storage_bounds(rid).volume()) *
        fsize;
    IDXL_REQUIRE(st.bytes.size() == expect,
                 "setup storage size does not match region geometry");
    std::memcpy(forest->field_data(rid, st.field), st.bytes.data(),
                st.bytes.size());
  }
  return forest;
}

}  // namespace idxl::dist
