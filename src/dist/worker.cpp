#include "dist/worker.hpp"

#include <cstring>

#include "dist/dist_runtime.hpp"
#include "dist/task_registry.hpp"
#include "support/error.hpp"

namespace idxl::dist {

WorkerSession::WorkerSession(net::Socket sock, uint32_t rank, uint32_t nranks,
                             RuntimeConfig config,
                             std::shared_ptr<RegionForest> forest,
                             const std::vector<std::pair<std::string, TaskFn>>& tasks,
                             uint32_t heartbeat_period_ms, uint32_t stall_window_ms,
                             WorkerDataPlane data_plane)
    : rank_(rank),
      nranks_(nranks),
      dp_(std::move(data_plane)),
      heartbeat_ms_(heartbeat_period_ms),
      window_ms_(stall_window_ms) {
  // The hooks capture `this`; they only ever fire from run()'s frame
  // processing, by which time conn_ exists.
  config.point_owned = [rank, nranks](uint64_t, const Point& p,
                                      const Domain& domain) {
    return owner_of(domain, p, nranks) == rank;
  };
  // Workers never run the interference analysis themselves: pair verdicts
  // arrive as certificate bundles on launch descriptors and are re-validated
  // by the arithmetic checker before any probe is skipped. An uncertified
  // pair falls back to the full dependence walk (fail closed).
  config.interference_import_only = true;
  config.on_task_success = [this](uint64_t seq, uint64_t launch, const Point&,
                                  TaskContext& ctx) {
    if (dp_.delta && ctx.fn == dp_.xfer_task) {
      send_xfer_data(seq, launch, ctx);
      return;
    }
    TaskDone td;
    td.seq = seq;
    td.ctx = obs::TraceContext{launch, seq, rank_};
    td.outcome.ret = ctx.return_value;
    if (!dp_.delta || needs_full_outcome(ctx) || full_launches_.contains(launch)) {
      for (PhysicalRegion& pr : ctx.regions)
        if (privilege_writes(pr.privilege())) pr.copy_out(td.outcome.region_bytes);
    } else {
      // Delta mode: the written data stays here; the driver's coherence map
      // knows this rank produced it and will route it on demand.
      td.outcome.has_data = false;
    }
    net_.bytes_hub.fetch_add(td.outcome.region_bytes.size(),
                             std::memory_order_relaxed);
    conn_->send(static_cast<uint8_t>(Msg::kTaskDone), encode_task_done(td));
  };
  config.on_task_fault = [this](const TaskFault& fault) {
    TaskDone td;
    td.seq = fault.seq;
    td.ctx = obs::TraceContext{fault.launch, fault.seq, rank_};
    td.outcome.kind = fault.kind;
    td.outcome.root = fault.root;
    td.outcome.attempts = fault.attempts;
    td.outcome.message = fault.message;
    conn_->send(static_cast<uint8_t>(Msg::kTaskDone), encode_task_done(td));
  };
  rt_ = std::make_unique<Runtime>(std::move(config), std::move(forest));
  for (const auto& [name, fn] : tasks) rt_->register_task(name, fn);
  clocks_ = std::make_unique<net::ClockTable>(&rt_->metrics());
  name_xfer_apply_ = rt_->profiler().intern("xfer-apply");
  name_done_apply_ = rt_->profiler().intern("done-apply");
  net::NetObs obs;
  obs.metrics = &rt_->metrics();
  obs.log = &rt_->flight_recorder();
  obs.type_name = msg_name;
  conn_ = std::make_unique<net::Connection>(std::move(sock), "driver", obs);

  xfer_size_ = rt_->metrics().histogram("idxl_net_transfer_bytes",
                                        "Per-transfer payload bytes (sender side)");
  xfer_latency_ = rt_->metrics().histogram(
      "idxl_net_transfer_latency_ns",
      "Transfer send-to-apply latency, steady-clock ns (receiver side)");

  // Direct worker<->worker links. Each link's receive thread only completes
  // external nodes, so it cannot deadlock with the issuing (driver
  // connection) thread.
  for (auto& [peer_rank, psock] : dp_.peers) {
    auto pconn = std::make_unique<net::Connection>(
        std::move(psock), "peer-" + std::to_string(peer_rank), obs);
    net::Connection* raw = pconn.get();
    pconn->start_recv(
        [this, peer_rank = peer_rank, raw](net::Frame& frame) {
          if (frame.type == static_cast<uint8_t>(Msg::kRegionData))
            apply_region_data(decode_region_data(frame.payload));
          else if (frame.type == static_cast<uint8_t>(Msg::kPing))
            handle_ping(peer_rank, *raw, frame.payload);
          // anything else: liveness only.
        },
        [](const std::string&) {
          // A dead peer link only disables the direct path; send_xfer_data
          // falls back to the driver relay on the next send.
        });
    peers_.emplace_back(peer_rank, std::move(pconn));
  }
  dp_.peers.clear();
  if (dp_.fail_peer_links) {
    // Test hook: links exist, then die — every direct send now throws and
    // the relay fallback is genuinely exercised.
    for (auto& [peer_rank, c] : peers_) c->close();
  }

  // Distributed watchdog: a locally declared stall is pushed to the driver
  // (waits-for graph, recorder tail, metrics, and the seqs of outcomes this
  // rank is still owed), so the driver-side dump can merge all ranks and
  // name the one that is actually blocking.
  if (obs::Watchdog* wd = rt_->watchdog()) {
    wd->set_on_stall([this](const obs::StallReport& report) {
      Telemetry t = make_telemetry(TelemetryFlavor::kStallPush);
      t.completed = report.completed;
      t.pending = report.pending;
      t.window_ms = report.window_ms;
      t.blocked = report.blocked;
      try {
        conn_->send(static_cast<uint8_t>(Msg::kTelemetry), encode_telemetry(t));
      } catch (const std::exception&) {
        // Driver is gone; the local dump already went to stderr.
      }
    });
  }
}

void WorkerSession::handle_ping(uint32_t peer_rank, net::Connection& conn,
                                const std::vector<std::byte>& payload) {
  const std::vector<std::byte> reply = clocks_->on_probe(peer_rank, payload);
  if (reply.empty()) return;
  try {
    conn.send(static_cast<uint8_t>(Msg::kPing), reply);
  } catch (const std::exception&) {
    // Connection tearing down; the next heartbeat will probe again.
  }
}

Telemetry WorkerSession::make_telemetry(TelemetryFlavor flavor) {
  Telemetry t;
  t.rank = rank_;
  t.flavor = static_cast<uint8_t>(flavor);
  const obs::EventLog& log = rt_->profiler();
  t.epoch_ns = log.epoch_ns();
  if (log.capturing()) {
    t.names = log.names();
    t.spans = log.events();
    t.samples = log.task_samples();
  }
  t.recent = log.tail(256);
  t.metrics = rt_->metrics().snapshot();
  t.pending_externals = rt_->pending_externals();
  return t;
}

net::Connection* WorkerSession::peer_conn(uint32_t rank) {
  for (auto& [peer_rank, c] : peers_)
    if (peer_rank == rank) return c.get();
  return nullptr;
}

void WorkerSession::send_xfer_data(uint64_t seq, uint64_t launch,
                                   TaskContext& ctx) {
  const XferArgs xa = ctx.arg<XferArgs>();
  RegionData rd;
  rd.seq = seq;
  rd.dest = xa.dest;
  rd.sent_ns = steady_now_ns();
  rd.ctx = obs::TraceContext{launch, seq, rank_};
  RegionPatch patch;
  patch.arg = 0;
  patch.field = xa.field;
  patch.rect = xa.rect;
  ctx.region(0).copy_out_rect(xa.field, xa.rect, patch.bytes);
  const uint64_t nbytes = patch.bytes.size();
  rd.patches.push_back(std::move(patch));
  const std::vector<std::byte> payload = encode_region_data(rd);

  // Fallback ladder: direct link if one is up, driver relay otherwise
  // (dest 0 is the driver itself — always the relay path).
  bool direct = false;
  if (net::Connection* peer = xa.dest == 0 ? nullptr : peer_conn(xa.dest)) {
    try {
      peer->send(static_cast<uint8_t>(Msg::kRegionData), payload);
      direct = true;
    } catch (const std::exception&) {
      // Peer link down; relay below.
    }
  }
  if (direct) {
    net_.bytes_p2p.fetch_add(nbytes, std::memory_order_relaxed);
  } else {
    conn_->send(static_cast<uint8_t>(Msg::kRegionData), payload);
    net_.bytes_relay.fetch_add(nbytes, std::memory_order_relaxed);
  }
  net_.transfers.fetch_add(1, std::memory_order_relaxed);
  xfer_size_.observe(nbytes);

  // Slim completion for every other rank. The driver excludes `data_dest`
  // from the relay: the destination's copy of this outcome is the
  // kRegionData payload above.
  TaskDone td;
  td.seq = seq;
  td.data_dest = xa.dest;
  td.ctx = obs::TraceContext{launch, seq, rank_};
  td.outcome.ret = ctx.return_value;
  td.outcome.has_data = false;
  conn_->send(static_cast<uint8_t>(Msg::kTaskDone), encode_task_done(td));
}

void WorkerSession::apply_region_data(RegionData rd) {
  IDXL_REQUIRE(rd.dest == rank_,
               "region-data payload delivered to the wrong rank");
  const uint64_t now = steady_now_ns();
  if (rd.sent_ns != 0 && now >= rd.sent_ns) xfer_latency_.observe(now - rd.sent_ns);
  const uint64_t span_start = rt_->profiler().now_ns();
  const uint64_t seq = rd.seq;
  const obs::TraceContext ctx = rd.ctx;
  RemoteOutcome o;
  o.has_data = false;
  o.patches = std::move(rd.patches);
  // May arrive before this rank issued the transfer task (direct links race
  // the driver's kRoute); complete_external buffers unknown seqs.
  rt_->complete_external(seq, std::move(o));
  // The receiving half of the transfer edge: parented on the producing
  // transfer span of the sending rank, so the merged trace can draw a flow
  // arrow from the source lane into this one.
  rt_->profiler().record_remote_span(name_xfer_apply_, seq, ctx, span_start);
}

void WorkerSession::run() {
  std::vector<net::Connection*> monitored{conn_.get()};
  for (auto& [peer_rank, c] : peers_)
    if (!dp_.fail_peer_links) monitored.push_back(c.get());
  monitor_ = std::make_unique<net::PeerMonitor>(
      std::move(monitored), static_cast<uint8_t>(Msg::kPing), heartbeat_ms_,
      window_ms_, &rt_->metrics(), nullptr, &net::ClockTable::make_ping);
  conn_->send(static_cast<uint8_t>(Msg::kHelloAck), {});
  const std::string err =
      conn_->recv_loop([this](net::Frame& frame) { on_frame(frame); });
  monitor_->stop();
  // Whether the driver said goodbye or just vanished, nothing further will
  // arrive: resolve any still-pending externals so teardown cannot hang.
  rt_->abandon_externals(err.empty() ? "driver connection closed" : err);
  rt_->wait_all();
  for (auto& [peer_rank, c] : peers_) c->close();
  conn_->close();
}

void WorkerSession::on_frame(net::Frame& frame) {
  switch (static_cast<Msg>(frame.type)) {
    case Msg::kLaunch: {
      const IndexLauncher launcher = deserialize_launcher(frame.payload);
      // The driver marked this launch the same way before planning it.
      if (dp_.delta && aliases_across_ranks(rt_->forest(), launcher, nranks_))
        full_launches_.mark(rt_->peek_next_launch_id());
      rt_->execute_index(launcher);
      break;
    }
    case Msg::kSingle:
      rt_->execute(deserialize_task_launcher(frame.payload));
      break;
    case Msg::kRoute: {
      // Replicated transfer issuance: every rank builds the identical
      // launcher, so seq numbers stay aligned; only `src` runs the body.
      const Route r = decode_route(frame.payload);
      IDXL_REQUIRE(r.launch == UINT64_MAX ||
                       r.launch == rt_->peek_next_launch_id(),
                   "transfer launch id diverged from the routing directive "
                   "(control replication bug)");
      rt_->execute(make_xfer_launcher(dp_.xfer_task, r, nranks_));
      break;
    }
    case Msg::kRegionData:
      // Driver-relayed delta payload for this rank.
      apply_region_data(decode_region_data(frame.payload));
      break;
    case Msg::kTaskDone: {
      TaskDone td = decode_task_done(frame.payload);
      const uint64_t span_start = rt_->profiler().now_ns();
      const uint64_t seq = td.seq;
      const obs::TraceContext ctx = td.ctx;
      rt_->complete_external(seq, std::move(td.outcome));
      rt_->profiler().record_remote_span(name_done_apply_, seq, ctx, span_start);
      break;
    }
    case Msg::kFence: {
      // Safe to fence on the receive thread: every outcome this rank's
      // externals need was forwarded before the fence on the same FIFO
      // connection (or arrives on an independent peer link), so wait_all()
      // cannot depend on an unread driver frame.
      const uint64_t id = decode_fence(frame.payload);
      rt_->wait_all();
      full_launches_.clear();  // every success hook has run
      FenceAck ack;
      ack.fence = id;
      ack.report = rt_->fault_report();
      ack.net.bytes_hub = net_.bytes_hub.load(std::memory_order_relaxed);
      ack.net.bytes_relay = net_.bytes_relay.load(std::memory_order_relaxed);
      ack.net.bytes_p2p = net_.bytes_p2p.load(std::memory_order_relaxed);
      ack.net.transfers = net_.transfers.load(std::memory_order_relaxed);
      // Piggyback a metrics snapshot: fences are rare and snapshots small,
      // so every ack refreshes the driver's per-rank cluster view.
      ack.metrics = serialize_metrics_snapshot(rt_->metrics().snapshot());
      conn_->send(static_cast<uint8_t>(Msg::kFenceAck), encode_fence_ack(ack));
      break;
    }
    case Msg::kTelemetryReq:
      // Only sent at quiescent moments (post-fence), so the span views read
      // a complete log from this — the issuing — thread.
      conn_->send(static_cast<uint8_t>(Msg::kTelemetry),
                  encode_telemetry(make_telemetry(TelemetryFlavor::kShutdownPull)));
      break;
    case Msg::kShutdown:
      conn_->send(static_cast<uint8_t>(Msg::kBye), {});
      conn_->drain();
      // Returns recv_loop cleanly; the driver closes its end after kBye.
      conn_->shutdown_read();
      break;
    case Msg::kPing:
      handle_ping(/*peer_rank=*/0, *conn_, frame.payload);
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

  RuntimeConfig rc;
  rc.workers = hello.workers;
  rc.enable_profiling = hello.enable_profiling != 0;
  if (!hello.fault_plan.empty())
    rc.fault_plan =
        std::make_shared<const FaultPlan>(FaultPlan::parse(hello.fault_plan));

  // Exec daemons have no direct route to each other: delta payloads always
  // relay through the driver (hello.p2p is informative only today).
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
