#include "dist/replica.hpp"

#include <algorithm>
#include <unordered_map>

#include "dist/dist_runtime.hpp"
#include "support/error.hpp"

namespace idxl::dist {

namespace {

/// Scalar argument of the replicated no-op transfer task ("idxl_xfer").
/// Must stay trivially copyable: it rides in the launcher's ArgBuffer.
struct XferArgs {
  FieldId field = 0;
  uint32_t dest = 0;
  Rect rect;
};

/// The launcher every rank issues for a planned transfer — identical by
/// construction, so seq numbers and launch ids stay replicated.
/// `.at(p1(src), line(n))` pins the no-op body (and its on_task_success data
/// push) to rank src: owner_of(line(n), p1(src), n) == src.
TaskLauncher xfer_launcher(TaskFnId task, const Transfer& t, uint32_t nranks) {
  XferArgs args;
  args.field = t.field;
  args.dest = t.dest;
  args.rect = t.rect;
  return TaskLauncher::for_task(task)
      .region(t.producer, {t.field}, Privilege::kReadWrite)
      .scalars(ArgBuffer::of(args))
      .at(Point::p1(t.src), Domain::line(static_cast<int64_t>(nranks)))
      .as_internal();
}

/// The data-plane series every rank registers and data_plane_of reads.
constexpr const char* kDataBytes = "idxl_net_data_bytes_total";
constexpr const char* kTransfers = "idxl_net_transfers_total";
obs::Labels route_labels(const char* kind, const char* route) {
  return {{"kind", kind}, {"route", route}};
}

/// The planner's footprint rules: a task reads every argument but a kWrite
/// one, reads before it writes, and a sparse write footprint ships its full
/// outcome (full_outcome_footprint), so its writes are current everywhere.
bool has_read_half(Privilege p) { return p != Privilege::kWrite; }

/// One region argument of a point task being planned; with `nargs`
/// arguments per point, the i-th point's are `args[i * nargs, (i + 1) * nargs)`.
struct PlanArg {
  RegionId region;
  Privilege privilege = Privilege::kRead;
  const std::vector<FieldId>* fields = nullptr;
};

/// Whether a point with arguments `arg[0, nargs)` has a sparse write footprint.
bool sparse_write(const RegionForest& forest, const PlanArg* arg, std::size_t nargs) {
  return std::any_of(arg, arg + nargs, [&](const PlanArg& pa) {
    return full_outcome_footprint(pa.privilege, forest.region_domain(pa.region));
  });
}

/// Plan the points `owners` own, in order, on `map`, each point's reads
/// before its writes, appending the transfers the reads need to `out`.
/// `full_launch`: the launch aliases across ranks, so every point ships its
/// full outcome.
void plan_points(const RegionForest& forest, VersionMap& map,
                 const std::vector<uint32_t>& owners, const std::vector<PlanArg>& args,
                 bool full_launch, std::vector<Transfer>& out) {
  const std::size_t nargs = args.size() / owners.size();
  for (std::size_t i = 0; i < owners.size(); ++i) {
    const uint32_t owner = owners[i];
    const PlanArg* arg = args.data() + i * nargs;
    // Reads first: every transfer the point consumes enters the stream
    // ahead of it.
    for (std::size_t a = 0; a < nargs; ++a) {
      if (!has_read_half(arg[a].privilege)) continue;
      for (FieldId f : *arg[a].fields) map.plan_read(arg[a].region, f, owner, out);
    }
    // Writes. A launch aliasing across ranks or a sparse write footprint
    // makes the owner broadcast the whole task outcome (on_success); the map
    // records those writes as current everywhere, or it would claim data
    // that never shipped.
    const bool everywhere = full_launch || sparse_write(forest, arg, nargs);
    for (std::size_t a = 0; a < nargs; ++a) {
      if (!privilege_writes(arg[a].privilege)) continue;
      const RegionId producer = arg[a].region;
      const Domain& dom = forest.region_domain(producer);
      for (FieldId f : *arg[a].fields) {
        if (!everywhere) {
          map.note_write(producer, f, dom.bounds(), owner);
        } else if (dom.dense()) {
          map.note_write_everywhere(producer, f, dom.bounds(), owner);
        } else {
          // A sparse footprint's bounding box would erase records of newer
          // data the task never touched — record the exact points instead.
          dom.for_each([&](const Point& q) {
            map.note_write_everywhere(producer, f, Rect(q, q), owner);
          });
        }
      }
    }
  }
}

}  // namespace

DataPlaneStats data_plane_of(const obs::MetricsSnapshot& metrics) {
  DataPlaneStats s;
  s.bytes_hub = metrics.value(kDataBytes, route_labels("full", "hub"));
  s.bytes_relay = metrics.value(kDataBytes, route_labels("delta", "relay"));
  s.bytes_p2p = metrics.value(kDataBytes, route_labels("delta", "p2p"));
  s.transfers = metrics.value(kTransfers);
  return s;
}

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
  if (delta) vmap_ = std::make_unique<VersionMap>(nranks, *forest);
  // The hooks capture `this`; they fire only once launches are issued, by
  // which time attach() has set the links.
  config.point_owned = [rank, nranks](uint64_t, const Point& p, const Domain& domain) {
    return owner_of(domain, p, nranks) == rank;
  };
  config.on_task_success = [this](uint64_t seq, uint64_t launch, const Point&,
                                  TaskContext& ctx) { on_success(seq, launch, ctx); };
  config.on_task_fault = [this](const TaskFault& fault) { on_fault(fault); };
  rt_ = std::make_unique<Runtime>(std::move(config), std::move(forest));
  for (const auto& [name, fn] : tasks) rt_->register_task(name, fn);
  clocks_ = std::make_unique<net::ClockTable>(&rt_->metrics());
  name_xfer_apply_ = rt_->profiler().intern("xfer-apply");
  name_done_apply_ = rt_->profiler().intern("done-apply");
  obs::MetricsRegistry& m = rt_->metrics();
  const char* bytes_help = "Data-plane payload bytes sent, by kind and route";
  bytes_hub_ = m.counter(kDataBytes, bytes_help, route_labels("full", "hub"));
  bytes_relay_ = m.counter(kDataBytes, bytes_help, route_labels("delta", "relay"));
  bytes_p2p_ = m.counter(kDataBytes, bytes_help, route_labels("delta", "p2p"));
  transfers_ = m.counter(kTransfers, "kRegionData transfer messages sent");
  xfer_size_ = m.histogram("idxl_net_transfer_bytes", "Per-transfer payload bytes (sender side)");
  xfer_latency_ = m.histogram("idxl_net_transfer_latency_ns",
                              "Transfer send-to-apply latency, steady-clock ns (receiver side)");
}

LaunchResult Replica::execute_index(IndexLauncher launcher,
                                    const Announce<IndexLauncher>& announce) {
  // The runtime resolves the launch first: a launcher it refuses throws
  // before this rank's map or stream has changed, and before rank 0
  // announces it.
  Runtime::Resolution res = rt_->resolve(launcher);
  const bool slim = delta_ && plan(launcher, res);
  const uint64_t launch = rt_->peek_next_launch_id();
  if (announce) {
    launcher.trace_ctx = obs::TraceContext{launch, obs::TraceContext::kNone, 0};
    announce(launcher);
  }
  const std::pair<int64_t, int64_t> owned = owned_run(launcher.domain, rank_, nranks_);
  return rt_->execute_index(launcher, std::move(res), [&](bool index_launch) {
    // Held from before the launch's first task exists, so every owned
    // task's hook finds it.
    if (!slim || !index_launch || owned.first == owned.second) return;
    Held h;
    h.left = static_cast<uint32_t>(owned.second - owned.first);
    h.slice.first = rt_->peek_next_seq() + static_cast<uint64_t>(owned.first);
    h.slice.count = h.left;
    h.slice.ctx = obs::TraceContext{launch, h.slice.first, rank_};
    if (launcher.result_redop != ReductionOp::kNone) h.slice.rets.assign(h.left, 0.0);
    std::lock_guard<std::mutex> lock(held_mu_);
    held_.emplace(launch, std::move(h));
  });
}

bool Replica::plan(const IndexLauncher& launcher, const Runtime::Resolution& res) {
  // Plan every point from the resolution's subregions, and decide whether
  // the launch aliases across ranks: whether a point reads data an earlier
  // point of the same launch writes on another rank. Points that fold into
  // one color do, as do the aliased points of an unsafe launch. Such a read
  // cannot be planned — its transfer would be issued ahead of the launch
  // producing its data — so the owners ship full outcomes for that launch
  // instead.
  RegionForest& forest = rt_->forest();
  const std::size_t nargs = launcher.args.size();
  std::vector<uint32_t> owners;
  std::vector<PlanArg> args;
  struct Write {
    uint32_t owner;
    RegionId root;
    FieldId field;
  };
  // The launch's writes so far, by the writing subregion's index space: a
  // read meets only the buckets the overlap index lists for its own, whose
  // bounds overlap the read's by construction.
  std::unordered_map<uint32_t, std::vector<Write>> writes;
  bool aliased = false;
  bool sparse = false;
  launcher.domain.for_each([&](const Point& p) {
    const std::size_t i = owners.size();
    const uint32_t owner = owners.emplace_back(owner_of(launcher.domain, p, nranks_));
    for (std::size_t a = 0; a < nargs; ++a)
      args.push_back({res.region(i, a), launcher.args[a].privilege, &launcher.args[a].fields});
    if (aliased) return;
    const PlanArg* arg = args.data() + i * nargs;
    for (std::size_t a = 0; a < nargs && !aliased; ++a) {
      if (!has_read_half(arg[a].privilege)) continue;
      const RegionInfo& info = forest.region(arg[a].region);
      const std::vector<FieldId>& fields = *arg[a].fields;
      aliased = std::ranges::any_of(forest.overlapping(info.ispace), [&](IndexSpaceId is) {
        const auto it = writes.find(is.id);
        return it != writes.end() && std::ranges::any_of(it->second, [&](const Write& w) {
                 return w.owner != owner && w.root == info.root &&
                        std::ranges::find(fields, w.field) != fields.end();
               });
      });
    }
    if (sparse_write(forest, arg, nargs)) {
      sparse = true;
      return;  // current everywhere: no read moves it
    }
    for (std::size_t a = 0; a < nargs; ++a) {
      if (!privilege_writes(arg[a].privilege)) continue;
      const RegionInfo& info = forest.region(arg[a].region);
      std::vector<Write>& bucket = writes[info.ispace.id];
      for (FieldId f : *arg[a].fields) bucket.push_back({owner, info.root, f});
    }
  });
  std::vector<Transfer> transfers;
  plan_points(forest, *vmap_, owners, args, aliased, transfers);
  issue(transfers);
  if (aliased) full_launches_.mark(rt_->peek_next_launch_id());
  return !aliased && !sparse;
}

LaunchResult Replica::execute(TaskLauncher launcher, const Announce<TaskLauncher>& announce) {
  // Mapped before anything is planned, like an index launch's resolution.
  Runtime::Resolution res = rt_->resolve(launcher);
  if (delta_) {
    std::vector<PlanArg> args;
    for (const RegionArg& ra : launcher.args)
      args.push_back({ra.region, ra.privilege, &ra.fields});
    std::vector<Transfer> transfers;
    plan_points(rt_->forest(), *vmap_,
                {owner_of(launcher.launch_domain, launcher.point, nranks_)}, args,
                /*full_launch=*/false, transfers);
    issue(transfers);
  }
  if (announce) {
    launcher.trace_ctx =
        obs::TraceContext{rt_->peek_next_launch_id(), obs::TraceContext::kNone, 0};
    announce(launcher);
  }
  return rt_->execute(launcher, std::move(res));
}

void Replica::recall() {
  IDXL_REQUIRE(vmap_ != nullptr, "recall on the star-hub data plane");
  const RegionForest& forest = rt_->forest();
  std::vector<Transfer> transfers;
  for (uint32_t i = 0; i < forest.region_count(); ++i) {
    const RegionInfo& info = forest.region(RegionId{i});
    if (info.root != info.handle) continue;
    for (const FieldInfo& fi : forest.fields(info.fspace))
      vmap_->plan_read(info.handle, fi.id, /*dest=*/0, transfers);
  }
  issue(transfers);
}

void Replica::issue(const std::vector<Transfer>& transfers) {
  for (const Transfer& t : transfers) rt_->execute(xfer_launcher(xfer_task_, t, nranks_));
}

void Replica::quiesce() {
  rt_->wait_all();
  full_launches_.clear();
}

bool Replica::settle_held(uint64_t launch, uint64_t seq, double ret, const TaskFault* fault) {
  TaskDone whole;
  {
    std::lock_guard<std::mutex> lock(held_mu_);
    const auto it = held_.find(launch);
    if (it == held_.end()) return false;
    Held& h = it->second;
    const auto index = static_cast<uint32_t>(seq - h.slice.first);
    IDXL_ASSERT(index < h.slice.count);
    if (fault != nullptr)
      h.slice.faults.push_back({index, fault->kind, fault->root, fault->attempts, fault->message});
    else if (!h.slice.rets.empty())
      h.slice.rets[index] = ret;
    if (--h.left != 0) return true;
    whole = std::move(h.slice);
    held_.erase(it);
  }
  std::ranges::sort(whole.faults, {}, &TaskDone::Fault::index);
  send_outcome(whole);
  return true;
}

void Replica::on_success(uint64_t seq, uint64_t launch, TaskContext& ctx) {
  if (delta_ && ctx.fn == xfer_task_) {
    send_transfer(seq, launch, ctx);
    return;
  }
  if (settle_held(launch, seq, ctx.return_value, nullptr)) return;
  TaskDone td;
  td.first = seq;
  td.ctx = obs::TraceContext{launch, seq, rank_};
  td.rets.push_back(ctx.return_value);
  if (!delta_ || needs_full_outcome(ctx) || full_launches_.contains(launch)) {
    td.has_data = true;
    for (PhysicalRegion& pr : ctx.regions)
      if (privilege_writes(pr.privilege())) pr.copy_out(td.region_bytes);
  }
  // Otherwise (delta plane) the written data stays here; every rank's
  // version map knows this rank produced it and plans a transfer when a
  // read needs it.
  send_outcome(td);
}

void Replica::on_fault(const TaskFault& fault) {
  if (settle_held(fault.launch, fault.seq, 0.0, &fault)) return;
  TaskDone td;
  td.first = fault.seq;
  td.ctx = obs::TraceContext{fault.launch, fault.seq, rank_};
  td.faults.push_back({0, fault.kind, fault.root, fault.attempts, fault.message});
  send_outcome(td);
}

void Replica::send_outcome(const TaskDone& done) {
  const std::vector<std::byte> payload = encode_task_done(done);
  for (const RankLink& link : links_.outcomes)
    if (link.rank != done.data_dest || link.conn == links_.relay)
      try_send(*link.conn, Msg::kTaskDone, payload);
  bytes_hub_.inc(done.region_bytes.size() * links_.outcomes.size());
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
  const obs::Counter* route = nullptr;
  if (direct != nullptr && try_send(*direct, Msg::kRegionData, payload))
    route = links_.direct_is_p2p ? &bytes_p2p_ : &bytes_relay_;
  else if (links_.relay != nullptr && try_send(*links_.relay, Msg::kRegionData, payload))
    route = &bytes_relay_;
  if (route != nullptr) {
    route->inc(nbytes);
    transfers_.inc();
    xfer_size_.observe(nbytes);
  }

  // A slim slice of one for every other rank; the destination's copy of
  // this outcome is the payload above, ahead of it on any connection both
  // use.
  TaskDone td;
  td.first = seq;
  td.data_dest = xa.dest;
  td.ctx = obs::TraceContext{launch, seq, rank_};
  send_outcome(td);
}

void Replica::apply_done(TaskDone done) {
  const uint64_t span_start = rt_->profiler().now_ns();
  std::size_t fault = 0;
  for (uint32_t i = 0; i < done.count; ++i)
    rt_->complete_external(done.first + i, done.outcome(i, &fault));
  // Parented on the slice's first task, on the rank that ran it.
  rt_->profiler().record_remote_span(name_done_apply_, done.first, done.ctx, span_start);
}

void Replica::apply_data(RegionData data) {
  IDXL_REQUIRE(data.dest == rank_, "region-data payload delivered to the wrong rank");
  const uint64_t now = steady_now_ns();
  if (data.sent_ns != 0 && now >= data.sent_ns) xfer_latency_.observe(now - data.sent_ns);
  const uint64_t span_start = rt_->profiler().now_ns();
  RemoteOutcome o;
  o.has_data = false;
  o.patches = std::move(data.patches);
  // May arrive before this rank issued the transfer task: each rank plans
  // a transfer only when the launch that reads it reaches that rank, and
  // the source's payload can outrun that launch's frame from the driver.
  // complete_external buffers unknown seqs.
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
  bytes_hub_.inc(hub_bytes);
  bytes_relay_.inc(relay_bytes);
}

obs::RankTrace Replica::telemetry() const {
  obs::RankTrace t;
  t.rank = rank_;
  const obs::EventLog& log = rt_->profiler();
  t.epoch_ns = log.epoch_ns();
  if (log.capturing()) {
    t.names = log.names();
    t.spans = log.events();
    t.samples = log.task_samples();
  }
  t.recent = log.tail(256);
  return t;
}

obs::RankStall Replica::stall_telemetry(const obs::StallReport& report) const {
  return obs::RankStall{rank_, report, rt_->pending_externals()};
}

}  // namespace idxl::dist
