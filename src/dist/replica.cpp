#include "dist/replica.hpp"

#include "dist/dist_runtime.hpp"
#include "support/error.hpp"

namespace idxl::dist {

bool try_send(net::Connection& conn, Msg type, const std::vector<std::byte>& payload) {
  try {
    conn.send(static_cast<uint8_t>(type), payload);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

Replica::Replica(uint32_t rank, uint32_t nranks, RuntimeConfig config,
                 std::shared_ptr<RegionForest> forest,
                 const std::vector<std::pair<std::string, TaskFn>>& tasks, bool delta,
                 TaskFnId xfer_task)
    : rank_(rank), nranks_(nranks), delta_(delta), xfer_task_(xfer_task) {
  // The hooks capture `this`; they fire only once launches are issued, by
  // which time attach() has set the links.
  config.point_owned = [rank, nranks](uint64_t, const Point& p, const Domain& domain) {
    return owner_of(domain, p, nranks) == rank;
  };
  config.on_task_success = [this](uint64_t seq, uint64_t launch, const Point&,
                                  TaskContext& ctx) { on_success(seq, launch, ctx); };
  config.on_task_fault = [this](const TaskFault& fault) {
    TaskDone td;
    td.seq = fault.seq;
    td.ctx = obs::TraceContext{fault.launch, fault.seq, rank_};
    td.outcome.kind = fault.kind;
    td.outcome.root = fault.root;
    td.outcome.attempts = fault.attempts;
    td.outcome.message = fault.message;
    send_outcome(td);
  };
  rt_ = std::make_unique<Runtime>(std::move(config), std::move(forest));
  for (const auto& [name, fn] : tasks) rt_->register_task(name, fn);
  clocks_ = std::make_unique<net::ClockTable>(&rt_->metrics());
  name_xfer_apply_ = rt_->profiler().intern("xfer-apply");
  name_done_apply_ = rt_->profiler().intern("done-apply");
  xfer_size_ = rt_->metrics().histogram("idxl_net_transfer_bytes",
                                        "Per-transfer payload bytes (sender side)");
  xfer_latency_ = rt_->metrics().histogram(
      "idxl_net_transfer_latency_ns",
      "Transfer send-to-apply latency, steady-clock ns (receiver side)");
}

LaunchResult Replica::execute_index(const IndexLauncher& launcher, bool full_outcomes) {
  if (full_outcomes) full_launches_.mark(rt_->peek_next_launch_id());
  return rt_->execute_index(launcher);
}

LaunchResult Replica::execute_transfer(const Route& route) {
  return rt_->execute(make_xfer_launcher(xfer_task_, route, nranks_));
}

void Replica::quiesce() {
  rt_->wait_all();
  full_launches_.clear();
}

void Replica::on_success(uint64_t seq, uint64_t launch, TaskContext& ctx) {
  if (delta_ && ctx.fn == xfer_task_) {
    send_transfer(seq, launch, ctx);
    return;
  }
  TaskDone td;
  td.seq = seq;
  td.ctx = obs::TraceContext{launch, seq, rank_};
  td.outcome.ret = ctx.return_value;
  if (!delta_ || needs_full_outcome(ctx) || full_launches_.contains(launch)) {
    for (PhysicalRegion& pr : ctx.regions)
      if (privilege_writes(pr.privilege())) pr.copy_out(td.outcome.region_bytes);
  } else {
    // Delta mode: the written data stays here; the driver's coherence map
    // knows this rank produced it and routes it on demand.
    td.outcome.has_data = false;
  }
  send_outcome(td);
}

void Replica::send_outcome(const TaskDone& done) {
  const std::vector<std::byte> payload = encode_task_done(done);
  for (const RankLink& link : links_.outcomes)
    if (link.rank != done.data_dest || link.conn == links_.relay)
      try_send(*link.conn, Msg::kTaskDone, payload);
  bytes_hub_.fetch_add(done.outcome.region_bytes.size() * links_.outcomes.size(),
                       std::memory_order_relaxed);
}

void Replica::send_transfer(uint64_t seq, uint64_t launch, TaskContext& ctx) {
  const XferArgs xa = ctx.arg<XferArgs>();
  net::Connection* direct = nullptr;
  for (const RankLink& link : links_.direct)
    if (link.rank == xa.dest) direct = link.conn;
  IDXL_REQUIRE(direct != nullptr || links_.relay != nullptr,
               "transfer task routed to a rank this one has no link to");
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

  // Fallback ladder: the direct link if it is up, the relay otherwise.
  std::atomic<uint64_t>* route = nullptr;
  if (direct != nullptr && try_send(*direct, Msg::kRegionData, payload))
    route = links_.direct_is_p2p ? &bytes_p2p_ : &bytes_relay_;
  else if (links_.relay != nullptr && try_send(*links_.relay, Msg::kRegionData, payload))
    route = &bytes_relay_;
  if (route != nullptr) {
    route->fetch_add(nbytes, std::memory_order_relaxed);
    transfers_.fetch_add(1, std::memory_order_relaxed);
    xfer_size_.observe(nbytes);
  }

  // Slim completion for every other rank; the destination's copy of this
  // outcome is the payload above, ahead of it on any connection both use.
  TaskDone td;
  td.seq = seq;
  td.data_dest = xa.dest;
  td.ctx = obs::TraceContext{launch, seq, rank_};
  td.outcome.ret = ctx.return_value;
  td.outcome.has_data = false;
  send_outcome(td);
}

void Replica::apply_done(TaskDone done) {
  const uint64_t span_start = rt_->profiler().now_ns();
  rt_->complete_external(done.seq, std::move(done.outcome));
  rt_->profiler().record_remote_span(name_done_apply_, done.seq, done.ctx, span_start);
}

void Replica::apply_data(RegionData data) {
  IDXL_REQUIRE(data.dest == rank_, "region-data payload delivered to the wrong rank");
  const uint64_t now = steady_now_ns();
  if (data.sent_ns != 0 && now >= data.sent_ns) xfer_latency_.observe(now - data.sent_ns);
  const uint64_t span_start = rt_->profiler().now_ns();
  RemoteOutcome o;
  o.has_data = false;
  o.patches = std::move(data.patches);
  // May arrive before this rank issued the transfer task (direct links race
  // the driver's kRoute); complete_external buffers unknown seqs.
  rt_->complete_external(data.seq, std::move(o));
  // The receiving half of the transfer edge: parented on the producing
  // transfer span of the sending rank, so the merged trace can draw a flow
  // arrow from the source lane into this one.
  rt_->profiler().record_remote_span(name_xfer_apply_, data.seq, data.ctx, span_start);
}

void Replica::answer_probe(uint32_t peer_rank, net::Connection& conn,
                           const std::vector<std::byte>& payload) {
  const std::vector<std::byte> reply = clocks_->on_probe(peer_rank, payload);
  // A failed send is a link tearing down; the next heartbeat probes again.
  if (!reply.empty()) try_send(conn, Msg::kPing, reply);
}

void Replica::count_forwarded(uint64_t hub_bytes, uint64_t relay_bytes) {
  bytes_hub_.fetch_add(hub_bytes, std::memory_order_relaxed);
  bytes_relay_.fetch_add(relay_bytes, std::memory_order_relaxed);
}

DataPlaneStats Replica::data_plane() const {
  DataPlaneStats s;
  s.bytes_hub = bytes_hub_.load(std::memory_order_relaxed);
  s.bytes_relay = bytes_relay_.load(std::memory_order_relaxed);
  s.bytes_p2p = bytes_p2p_.load(std::memory_order_relaxed);
  s.transfers = transfers_.load(std::memory_order_relaxed);
  return s;
}

Telemetry Replica::telemetry() const {
  Telemetry t;
  t.rank = rank_;
  t.flavor = static_cast<uint8_t>(TelemetryFlavor::kShutdownPull);
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

Telemetry Replica::stall_telemetry(const obs::StallReport& report) const {
  Telemetry t;
  t.rank = rank_;
  t.flavor = static_cast<uint8_t>(TelemetryFlavor::kStallPush);
  t.epoch_ns = rt_->profiler().epoch_ns();
  t.completed = report.completed;
  t.pending = report.pending;
  t.window_ms = report.window_ms;
  t.blocked = report.blocked;
  t.recent = report.recent;
  t.metrics = report.metrics;
  t.pending_externals = rt_->pending_externals();
  return t;
}

}  // namespace idxl::dist
