#include "service/service_runtime.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <utility>

#include "dist/task_registry.hpp"
#include "runtime/runtime.hpp"
#include "runtime/serialize.hpp"
#include "support/error.hpp"

namespace idxl::service {

namespace {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool launch_class(Msg m) {
  return m == Msg::kLaunch || m == Msg::kSingle || m == Msg::kFill;
}

/// Every client->server request payload opens with a u64 tag.
uint64_t peek_tag(const std::vector<std::byte>& payload) {
  Deserializer d(payload);
  return d.get_u64();
}

}  // namespace

ServiceRuntime::ServiceRuntime(std::unique_ptr<RuntimeApi> backend,
                               ServiceConfig config)
    : config_(config),
      backend_(std::move(backend)),
      log_(config.enable_flight_recorder ? obs::LogMode::kBounded : obs::LogMode::kOff,
           config.flight_recorder_capacity) {
  IDXL_REQUIRE(backend_ != nullptr, "ServiceRuntime needs a backend");
  net_obs_.metrics = &metrics_;
  net_obs_.log = &log_;
  net_obs_.type_name = msg_name;

  sessions_opened_ = metrics_.counter("idxl_service_sessions_total",
                                      "session lifecycle events by kind",
                                      {{"event", "opened"}});
  sessions_closed_ =
      metrics_.counter("idxl_service_sessions_total", "", {{"event", "closed"}});
  evictions_count_ =
      metrics_.counter("idxl_service_evictions_total", "forced session teardowns");
  epochs_ = metrics_.counter("idxl_service_epochs_total",
                             "backend flush epochs (wait_all + retire)");
  flush_ns_ = metrics_.histogram("idxl_service_flush_ns", "epoch flush duration");
  active_gauge_ =
      metrics_.gauge("idxl_service_active_sessions", "live client sessions");
  queue_depth_gauge_ = metrics_.gauge("idxl_service_queue_depth",
                                      "admitted items awaiting the scheduler");
  unretired_gauge_ = metrics_.gauge("idxl_service_unretired_launches",
                                    "issued launches not yet retired");
  metrics_.add_collector([this] {
    std::unique_lock<std::mutex> lk(mu_);
    active_gauge_.set(static_cast<int64_t>(sessions_.size()));
    queue_depth_gauge_.set(static_cast<int64_t>(queue_.size()));
    unretired_gauge_.set(static_cast<int64_t>(unretired_));
  });

  // The scheduler thread is the backend's single issuing thread for its
  // whole life — including task registration, which must precede the first
  // launch on every backend. The constructor blocks until the table is in.
  // The thread owns the promise, so signalling never touches this frame,
  // which is gone as soon as the wait below returns.
  std::promise<void> registered;
  std::future<void> table_in = registered.get_future();
  scheduler_ = std::thread([this, registered = std::move(registered)]() mutable {
    for (auto& [name, fn] : dist::all_named_tasks()) {
      task_names_.push_back(name);
      task_ids_.push_back(backend_->register_task(name, fn));
    }
    registered.set_value();
    scheduler_main();
  });
  table_in.wait();
}

ServiceRuntime::~ServiceRuntime() {
  // Stop accepting first so drain() converges.
  {
    std::lock_guard<std::mutex> lk(listen_mu_);
    for (int fd : listener_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : acceptors_)
    if (t.joinable()) t.join();
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  // Every session is closed; destroy the connection objects (joins their
  // sender/receiver threads).
  std::lock_guard<std::mutex> lk(conns_mu_);
  conns_.clear();
}

uint16_t ServiceRuntime::listen_tcp(uint16_t port) {
  net::Socket l = net::Socket::listen_tcp(port);
  const uint16_t bound = l.bound_port();
  {
    std::lock_guard<std::mutex> lk(listen_mu_);
    listener_fds_.push_back(l.fd());
  }
  acceptors_.emplace_back(
      [this, l = std::move(l)]() mutable { accept_main(std::move(l)); });
  return bound;
}

void ServiceRuntime::listen_unix(const std::string& path) {
  net::Socket l = net::Socket::listen_unix(path);
  {
    std::lock_guard<std::mutex> lk(listen_mu_);
    listener_fds_.push_back(l.fd());
  }
  acceptors_.emplace_back(
      [this, l = std::move(l)]() mutable { accept_main(std::move(l)); });
}

void ServiceRuntime::accept_main(net::Socket listener) {
  for (;;) {
    net::Socket client;
    try {
      client = listener.accept();
    } catch (const RuntimeError&) {
      return;  // listener shut down
    }
    if (!client.valid()) return;
    serve_socket(std::move(client));
  }
}

void ServiceRuntime::serve_socket(net::Socket sock) {
  auto c = std::make_unique<Conn>();
  c->conn = std::make_unique<net::Connection>(std::move(sock), "client", net_obs_);
  Conn* raw = c.get();
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    conns_.push_back(std::move(c));
  }
  raw->conn->start_recv(
      [this, raw](net::Frame& f) { on_frame(*raw, f); },
      [this, raw](const std::string& err) { on_close(*raw, err); });
}

void ServiceRuntime::on_frame(Conn& c, net::Frame& frame) {
  const Msg kind = static_cast<Msg>(frame.type);
  if (kind == Msg::kPing) return;
  if (c.session == nullptr) {
    handle_hello(c, frame);
    return;
  }
  std::shared_ptr<Session>& s = c.session;
  if (launch_class(kind)) {
    admit(c, kind, frame);
    return;
  }
  if (kind == Msg::kSetup || kind == Msg::kFence || kind == Msg::kRead ||
      kind == Msg::kGoodbye) {
    std::lock_guard<std::mutex> lk(mu_);
    if (s->dead.load(std::memory_order_acquire) || !queue_.has_session(s->sid))
      return;  // teardown racing the last frames; the kError frame answers
    // Cost 0: control messages must not distort the weighted launch
    // schedule (a setup-heavy session would otherwise start its launches
    // with a banked or spent pass).
    queue_.push(s->sid, WorkItem{kind, std::move(frame.payload), now_ns()},
                /*cost=*/0);
    cv_.notify_one();
    return;
  }
  // Unknown type from an established session: answer and evict.
  try {
    c.conn->send(static_cast<uint8_t>(Msg::kError),
                 encode_error({Err::kBadMessage, "unknown message type"}));
  } catch (const RuntimeError&) {
  }
  evict(s->sid, "protocol violation");
}

void ServiceRuntime::handle_hello(Conn& c, const net::Frame& frame) {
  const auto refuse = [&](Err code, const std::string& why) {
    try {
      c.conn->send(static_cast<uint8_t>(Msg::kError), encode_error({code, why}));
      c.conn->drain();
    } catch (const RuntimeError&) {
    }
    c.conn->shutdown_read();
  };
  if (static_cast<Msg>(frame.type) != Msg::kHello) {
    refuse(Err::kBadMessage, "expected hello");
    return;
  }
  ClientHello hello;
  try {
    hello = decode_client_hello(frame.payload);
  } catch (const RuntimeError& e) {
    refuse(Err::kBadMessage, e.what());
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    refuse(Err::kDraining, "server is draining");
    return;
  }
  auto s = std::make_shared<Session>();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (sessions_.size() >= config_.max_sessions) {
      // fall through to refuse outside the lock
      s = nullptr;
    } else {
      s->sid = next_sid_++;
      s->tenant = hello.tenant.empty()
                      ? "client-" + std::to_string(s->sid)
                      : hello.tenant;
      s->weight = std::clamp<uint32_t>(hello.weight, 1, config_.quota.max_weight);
      s->quota = config_.quota;
      s->conn = c.conn.get();
      sessions_.emplace(s->sid, s);
      queue_.add_session(s->sid, s->weight);
    }
  }
  if (s == nullptr) {
    metrics_
        .counter("idxl_service_admission_rejects_total",
                 "admissions refused, by tenant and reason",
                 {{"reason", err_name(Err::kQuotaSessions)},
                  {"tenant", hello.tenant.empty() ? "unknown" : hello.tenant}})
        .inc();
    refuse(Err::kQuotaSessions, "server at max_sessions");
    return;
  }
  s->queue_wait = metrics_.histogram("idxl_task_queue_wait_ns",
                                     "admission -> issue scheduler latency",
                                     {{"tenant", s->tenant}});
  s->launches = metrics_.counter("idxl_service_launches_total",
                                 "launches issued to the backend",
                                 {{"tenant", s->tenant}});
  c.session = s;
  sessions_opened_.inc();
  record_session_event(obs::LifecycleEvent::kSessionOpen, s->sid);
  Welcome w;
  w.session = s->sid;
  w.tenant = s->tenant;
  w.weight = s->weight;
  w.max_in_flight = s->quota.max_in_flight;
  w.max_region_bytes = s->quota.max_region_bytes;
  w.tasks = task_names_;
  try {
    c.conn->send(static_cast<uint8_t>(Msg::kWelcome), encode_welcome(w));
  } catch (const RuntimeError&) {
  }
}

void ServiceRuntime::admit(Conn& c, Msg kind, net::Frame& frame) {
  Session& s = *c.session;
  uint64_t tag = 0;
  try {
    tag = peek_tag(frame.payload);
  } catch (const RuntimeError&) {
    try {
      c.conn->send(static_cast<uint8_t>(Msg::kError),
                   encode_error({Err::kBadMessage, "truncated request"}));
    } catch (const RuntimeError&) {
    }
    evict(s.sid, "truncated request");
    return;
  }
  if (s.dead.load(std::memory_order_acquire)) {
    reject(s, *c.conn, tag, Err::kEvicted, "session closed");
    return;
  }
  if (draining_.load(std::memory_order_acquire)) {
    reject(s, *c.conn, tag, Err::kDraining, "server is draining");
    return;
  }
  // In-flight quota, enforced here so a flooding client gets an immediate
  // typed answer instead of unbounded queue growth.
  uint32_t cur = s.in_flight.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= s.quota.max_in_flight) {
      metrics_
          .counter("idxl_service_quota_trips_total",
                   "quota enforcement events, by tenant and kind",
                   {{"kind", "in_flight"}, {"tenant", s.tenant}})
          .inc();
      reject(s, *c.conn, tag, Err::kQuotaInFlight, "in-flight quota reached");
      return;
    }
    if (s.in_flight.compare_exchange_weak(cur, cur + 1,
                                          std::memory_order_acq_rel))
      break;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (s.dead.load(std::memory_order_acquire) || !queue_.has_session(s.sid)) {
      s.in_flight.fetch_sub(1, std::memory_order_acq_rel);
      return;
    }
    queue_.push(s.sid, WorkItem{kind, std::move(frame.payload), now_ns()});
  }
  cv_.notify_one();
}

void ServiceRuntime::reject(Session& s, net::Connection& conn, uint64_t tag,
                            Err code, const std::string& detail) {
  metrics_
      .counter("idxl_service_admission_rejects_total",
               "admissions refused, by tenant and reason",
               {{"reason", err_name(code)}, {"tenant", s.tenant}})
      .inc();
  record_session_event(obs::LifecycleEvent::kRejected, s.sid,
                       static_cast<uint64_t>(code));
  LaunchAck ack;
  ack.tag = tag;
  ack.code = code;
  ack.error = detail;
  try {
    conn.send(static_cast<uint8_t>(Msg::kLaunchAck), encode_launch_ack(ack));
  } catch (const RuntimeError&) {
  }
}

void ServiceRuntime::on_close(Conn& c, const std::string&) {
  if (c.session != nullptr && !c.session->dead.load(std::memory_order_acquire))
    evict(c.session->sid, "");  // peer vanished; silent teardown
  c.gone.store(true, std::memory_order_release);
}

bool ServiceRuntime::evict(uint64_t session, std::string reason) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sessions_.find(session);
    if (it == sessions_.end()) return false;
    if (it->second->dead.exchange(true, std::memory_order_acq_rel))
      return true;  // teardown already queued
    evictions_.emplace_back(session, std::move(reason));
  }
  cv_.notify_all();
  return true;
}

void ServiceRuntime::drain() {
  draining_.store(true, std::memory_order_release);
  std::unique_lock<std::mutex> lk(mu_);
  cv_.notify_all();
  idle_cv_.wait(lk, [this] {
    return sessions_.empty() && queue_.empty() && unretired_ == 0 &&
           evictions_.empty();
  });
}

std::size_t ServiceRuntime::active_sessions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sessions_.size();
}

std::size_t ServiceRuntime::queued() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

void ServiceRuntime::pause_scheduler() {
  std::lock_guard<std::mutex> lk(mu_);
  paused_ = true;
}

void ServiceRuntime::resume_scheduler() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void ServiceRuntime::record_session_event(obs::LifecycleEvent ev, uint64_t sid,
                                          uint64_t edge) {
  log_.record({.seq = sid, .edge = edge, .kind = ev});
}

// --- scheduler ----------------------------------------------------------

void ServiceRuntime::scheduler_main() {
  for (;;) {
    std::shared_ptr<Session> s;
    WorkItem item;
    bool have_item = false;
    bool do_flush = false;
    bool do_drain_closeout = false;
    std::vector<std::pair<uint64_t, std::string>> evs;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] {
        if (stop_ || !evictions_.empty()) return true;
        if (paused_) return false;
        if (!queue_.empty()) return true;
        if (unretired_ > 0 || fence_or_bye_pending_) return true;
        return draining_.load(std::memory_order_acquire) && !sessions_.empty();
      });
      if (stop_) return;
      if (!evictions_.empty()) {
        evs.swap(evictions_);
      } else if (!queue_.empty()) {
        uint64_t sid = 0;
        have_item = queue_.pop(&sid, &item);
        if (have_item) {
          auto it = sessions_.find(sid);
          if (it != sessions_.end()) s = it->second;
        }
      } else if (unretired_ > 0 || fence_or_bye_pending_) {
        do_flush = true;
      } else {
        do_drain_closeout = true;
      }
    }
    for (auto& [sid, reason] : evs) finish_eviction(sid, reason, true);
    if (have_item && s != nullptr) process(s, std::move(item));
    if (do_flush) flush_epoch();
    if (do_drain_closeout) {
      std::vector<std::shared_ptr<Session>> all;
      {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto& [sid, sess] : sessions_) {
          sess->dead.store(true, std::memory_order_release);
          all.push_back(sess);
        }
      }
      for (auto& sess : all) {
        send_safe(*sess, Msg::kError,
                  encode_error({Err::kDraining, "server draining"}));
        sess->conn->close();
        std::lock_guard<std::mutex> lk(mu_);
        close_session_locked(sess);
      }
      idle_cv_.notify_all();
      reap_conns();
    }
  }
}

void ServiceRuntime::process(const std::shared_ptr<Session>& sp, WorkItem item) {
  Session& s = *sp;
  s.queue_wait.observe(now_ns() - item.enqueue_ns);
  try {
    switch (item.kind) {
      case Msg::kSetup: {
        auto [tag, body] = decode_tagged(item.payload);
        do_setup(s, tag, body);
        break;
      }
      case Msg::kLaunch:
      case Msg::kSingle: {
        auto [tag, body] = decode_tagged(item.payload);
        do_launch(s, item.kind, tag, body);
        break;
      }
      case Msg::kFill:
        do_fill(s, decode_fill(item.payload));
        break;
      case Msg::kFence: {
        s.pending_fences.push_back(decode_fence(item.payload));
        std::lock_guard<std::mutex> lk(mu_);
        fence_or_bye_pending_ = true;
        break;
      }
      case Msg::kRead:
        do_read(s, decode_read(item.payload));
        break;
      case Msg::kGoodbye: {
        s.bye_pending = true;
        std::lock_guard<std::mutex> lk(mu_);
        fence_or_bye_pending_ = true;
        break;
      }
      default:
        break;
    }
  } catch (const RuntimeError& e) {
    // A payload that passed the receive thread's tag peek but fails full
    // decode here: answer once, then tear the session down.
    send_safe(s, Msg::kError,
              encode_error({Err::kBadMessage, std::string("bad payload: ") + e.what()}));
    if (launch_class(item.kind)) s.in_flight.fetch_sub(1, std::memory_order_acq_rel);
    evict(s.sid, "undecodable payload");
  }
}

Err ServiceRuntime::translate_index(Session& s, IndexLauncher& l,
                                    std::string* why) {
  if (l.task >= task_ids_.size()) {
    *why = "task index " + std::to_string(l.task) + " out of range";
    return Err::kUnknownTask;
  }
  l.task = task_ids_[l.task];
  for (ProjectedArg& a : l.args) {
    if (a.parent.id >= s.region_map.size() ||
        a.partition.id >= s.part_map.size()) {
      *why = "region/partition handle outside this session's namespace";
      return Err::kForeignRegion;
    }
    a.parent.id = s.region_map[a.parent.id];
    a.partition.id = s.part_map[a.partition.id];
  }
  return Err::kOk;
}

Err ServiceRuntime::translate_single(Session& s, TaskLauncher& l,
                                     std::string* why) {
  if (l.task >= task_ids_.size()) {
    *why = "task index " + std::to_string(l.task) + " out of range";
    return Err::kUnknownTask;
  }
  l.task = task_ids_[l.task];
  for (RegionArg& a : l.args) {
    if (a.region.id >= s.region_map.size()) {
      *why = "region handle outside this session's namespace";
      return Err::kForeignRegion;
    }
    a.region.id = s.region_map[a.region.id];
  }
  return Err::kOk;
}

void ServiceRuntime::do_launch(Session& s, Msg kind, uint64_t tag,
                               const std::vector<std::byte>& body) {
  const auto fail = [&](Err code, const std::string& why) {
    reject(s, *s.conn, tag, code, why);
    s.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  };
  std::string why;
  LaunchResult result;
  try {
    if (kind == Msg::kLaunch) {
      IndexLauncher l = deserialize_launcher(body);
      const Err code = translate_index(s, l, &why);
      if (code != Err::kOk) return fail(code, why);
      result = backend_->execute_index(l);
    } else {
      TaskLauncher l = deserialize_task_launcher(body);
      const Err code = translate_single(s, l, &why);
      if (code != Err::kOk) return fail(code, why);
      result = backend_->execute(l);
    }
  } catch (const RuntimeError& e) {
    return fail(Err::kBackend, e.what());
  }
  s.epoch_issued.push_back(result.launch_id);
  s.launches.inc();
  record_session_event(obs::LifecycleEvent::kAdmitted, s.sid, result.launch_id);
  bool flush_now = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++unretired_;
    flush_now = unretired_ >= config_.epoch_max_unretired;
  }
  LaunchAck ack;
  ack.tag = tag;
  ack.code = Err::kOk;
  ack.launch = result.launch_id;
  send_safe(s, Msg::kLaunchAck, encode_launch_ack(ack));
  if (flush_now) flush_epoch();
}

void ServiceRuntime::do_fill(Session& s, const Fill& f) {
  const auto fail = [&](Err code, const std::string& why) {
    reject(s, *s.conn, f.tag, code, why);
    s.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  };
  if (f.region >= s.region_map.size())
    return fail(Err::kForeignRegion, "region handle outside this session");
  try {
    backend_->fill_bytes_region(RegionId{s.region_map[f.region]}, f.field,
                                f.pattern.data(), f.pattern.size());
  } catch (const RuntimeError& e) {
    return fail(Err::kBackend, e.what());
  }
  // Fills complete within the call (each backend fences or issues its own
  // internal task); retire immediately.
  s.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  LaunchAck ack;
  ack.tag = f.tag;
  ack.code = Err::kOk;
  send_safe(s, Msg::kLaunchAck, encode_launch_ack(ack));
}

void ServiceRuntime::do_read(Session& s, const ReadReq& r) {
  Data d;
  d.tag = r.tag;
  if (r.region >= s.region_map.size()) {
    d.code = Err::kForeignRegion;
    d.error = "region handle outside this session";
    return send_safe(s, Msg::kData, encode_data(d));
  }
  // Retire outstanding launches first so the read observes their writes
  // (and pending fences get answered rather than waiting behind the read).
  flush_epoch();
  try {
    backend_->sync_for_read();
    RegionForest& forest = backend_->forest();
    const RegionId rid{s.region_map[r.region]};
    const RegionInfo& info = forest.region(rid);
    IDXL_REQUIRE(info.root == info.handle, "read requires a root region");
    const FieldInfo& fi = forest.field(info.fspace, r.field);
    const std::byte* p = forest.field_data(rid, r.field);
    const auto vol =
        static_cast<std::size_t>(forest.storage_bounds(rid).volume());
    d.bytes.assign(p, p + vol * fi.size);
  } catch (const RuntimeError& e) {
    d.code = Err::kBackend;
    d.error = e.what();
  }
  send_safe(s, Msg::kData, encode_data(d));
}

Err ServiceRuntime::apply_setup(Session& s, const std::vector<SetupOp>& ops,
                                std::string* why) {
  RegionForest& forest = backend_->forest();
  // Pre-scan: validate every handle operand and total the new root-region
  // bytes, so the batch applies atomically or not at all.
  std::vector<Domain> batch_ispaces;  // client ids >= ispace_base
  const std::size_t ispace_base = s.ispace_map.size();
  std::vector<uint64_t> fsb = s.fspace_bytes;
  uint64_t new_bytes = 0;
  for (const SetupOp& op : ops) {
    switch (op.kind) {
      case SetupOp::Kind::kIndexSpace:
        batch_ispaces.push_back(op.domain);
        break;
      case SetupOp::Kind::kFieldSpace:
        fsb.push_back(0);
        break;
      case SetupOp::Kind::kField:
        if (op.a >= fsb.size()) {
          *why = "field space handle outside this session";
          return Err::kForeignRegion;
        }
        fsb[op.a] += op.b;
        break;
      case SetupOp::Kind::kPartition: {
        const std::size_t client_parent = op.a;
        if (client_parent >= ispace_base + batch_ispaces.size()) {
          *why = "index space handle outside this session";
          return Err::kForeignRegion;
        }
        for (const Domain& sub : op.subspaces) batch_ispaces.push_back(sub);
        break;
      }
      case SetupOp::Kind::kRegion: {
        if (op.a >= ispace_base + batch_ispaces.size() || op.b >= fsb.size()) {
          *why = "index/field space handle outside this session";
          return Err::kForeignRegion;
        }
        const Domain& dom = op.a >= ispace_base
                                ? batch_ispaces[op.a - ispace_base]
                                : forest.domain(IndexSpaceId{s.ispace_map[op.a]});
        new_bytes += static_cast<uint64_t>(dom.bounds().volume()) * fsb[op.b];
        break;
      }
      case SetupOp::Kind::kSubregion:
        // Subregions are views (no storage, no quota impact); their region/
        // partition operands may be created earlier in this same batch, so
        // they are validated during the apply loop below.
        break;
    }
  }
  if (s.region_bytes + new_bytes > s.quota.max_region_bytes) {
    metrics_
        .counter("idxl_service_quota_trips_total",
                 "quota enforcement events, by tenant and kind",
                 {{"kind", "region_bytes"}, {"tenant", s.tenant}})
        .inc();
    *why = "region bytes quota exceeded (" +
           std::to_string(s.region_bytes + new_bytes) + " > " +
           std::to_string(s.quota.max_region_bytes) + ")";
    return Err::kQuotaRegionBytes;
  }
  // Apply. A forest precondition failure mid-batch poisons the session (the
  // caller evicts), since client and server namespaces can no longer agree.
  for (const SetupOp& op : ops) {
    switch (op.kind) {
      case SetupOp::Kind::kIndexSpace:
        s.ispace_map.push_back(forest.create_index_space(op.domain).id);
        break;
      case SetupOp::Kind::kFieldSpace:
        s.fspace_map.push_back(forest.create_field_space().id);
        s.fspace_bytes.push_back(0);
        break;
      case SetupOp::Kind::kField:
        forest.allocate_field(FieldSpaceId{s.fspace_map[op.a]}, op.b, op.name);
        s.fspace_bytes[op.a] += op.b;
        break;
      case SetupOp::Kind::kPartition: {
        const auto base = static_cast<uint32_t>(forest.index_space_count());
        const PartitionId pid = forest.create_partition(
            IndexSpaceId{s.ispace_map[op.a]}, op.color_space, op.subspaces,
            static_cast<Disjointness>(op.disjointness));
        s.part_map.push_back(pid.id);
        // The subspace index spaces created inside create_partition get the
        // next sequential ids on both sides; mirror them into the map.
        for (std::size_t i = 0; i < op.subspaces.size(); ++i)
          s.ispace_map.push_back(base + static_cast<uint32_t>(i));
        break;
      }
      case SetupOp::Kind::kRegion: {
        const RegionId rid = forest.create_region(
            IndexSpaceId{s.ispace_map[op.a]}, FieldSpaceId{s.fspace_map[op.b]});
        s.region_map.push_back(rid.id);
        s.region_bytes +=
            static_cast<uint64_t>(forest.storage_bounds(rid).volume()) *
            s.fspace_bytes[op.b];
        break;
      }
      case SetupOp::Kind::kSubregion: {
        if (op.a >= s.region_map.size() || op.b >= s.part_map.size()) {
          *why = "subregion parent outside this session";
          return Err::kForeignRegion;
        }
        const RegionId rid =
            forest.subregion(RegionId{s.region_map[op.a]},
                             PartitionId{s.part_map[op.b]}, op.color);
        s.region_map.push_back(rid.id);
        break;
      }
    }
  }
  return Err::kOk;
}

void ServiceRuntime::do_setup(Session& s, uint64_t tag,
                              const std::vector<std::byte>& body) {
  SetupAck ack;
  ack.tag = tag;
  std::string why;
  try {
    const std::vector<SetupOp> ops = decode_setup_ops(body);
    ack.code = apply_setup(s, ops, &why);
    ack.error = why;
  } catch (const RuntimeError& e) {
    ack.code = Err::kSetupFailed;
    ack.error = e.what();
  }
  send_safe(s, Msg::kSetupAck, encode_setup_ack(ack));
  if (ack.code == Err::kSetupFailed) {
    // Namespaces may have diverged mid-batch; the session cannot continue.
    evict(s.sid, "setup failed: " + ack.error);
  }
}

void ServiceRuntime::flush_epoch() {
  const uint64_t t0 = now_ns();
  try {
    backend_->wait_all();
  } catch (const RuntimeError& e) {
    std::fprintf(stderr, "idxl-service: backend fence failed: %s\n", e.what());
  }
  const FaultReport full = backend_->fault_report();
  std::vector<std::shared_ptr<Session>> all;
  {
    std::lock_guard<std::mutex> lk(mu_);
    all.reserve(sessions_.size());
    for (auto& [sid, s] : sessions_) all.push_back(s);
  }
  std::vector<std::shared_ptr<Session>> closing;
  for (auto& sp : all) {
    Session& s = *sp;
    if (!s.epoch_issued.empty()) {
      for (const uint64_t launch : s.epoch_issued) {
        FaultReport fr = full.for_launch(launch);
        for (TaskFault& f : fr.failures) s.fault_log.failures.push_back(std::move(f));
        for (TaskFault& f : fr.poisoned) s.fault_log.poisoned.push_back(std::move(f));
      }
      s.in_flight.fetch_sub(static_cast<uint32_t>(s.epoch_issued.size()),
                            std::memory_order_acq_rel);
      s.epoch_issued.clear();
    }
    for (const uint64_t tag : s.pending_fences) {
      FenceAck fa;
      fa.tag = tag;
      fa.report = s.fault_log;
      send_safe(s, Msg::kFenceAck, encode_fence_ack(fa));
    }
    s.pending_fences.clear();
    if (s.bye_pending) closing.push_back(sp);
  }
  // A local backend's FaultLog would otherwise grow for the server's whole
  // life; faults are now attributed per session, so drop the global log.
  if (auto* rt = dynamic_cast<Runtime*>(backend_.get())) rt->clear_faults();
  for (auto& sp : closing) {
    sp->dead.store(true, std::memory_order_release);
    send_safe(*sp, Msg::kByeAck, {});
    sp->conn->close();
    std::lock_guard<std::mutex> lk(mu_);
    queue_.remove_session(sp->sid);  // nothing queued: bye was its last item
    close_session_locked(sp);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    unretired_ = 0;
    fence_or_bye_pending_ = false;
  }
  idle_cv_.notify_all();
  epochs_.inc();
  flush_ns_.observe(now_ns() - t0);
  reap_conns();
}

void ServiceRuntime::finish_eviction(uint64_t sid, const std::string& reason,
                                     bool notify) {
  std::shared_ptr<Session> s;
  std::vector<WorkItem> dropped;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) return;
    s = it->second;
    dropped = queue_.remove_session(sid);
  }
  for (const WorkItem& item : dropped)
    if (launch_class(item.kind))
      s->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  // Issued launches cannot be recalled: retire them (attributing their
  // faults) before the session record goes away, so no pool slot or
  // unretired count leaks.
  if (!s->epoch_issued.empty() || !s->pending_fences.empty() || s->bye_pending)
    flush_epoch();
  {
    // flush_epoch may have already closed it (bye_pending path).
    std::lock_guard<std::mutex> lk(mu_);
    if (sessions_.find(sid) == sessions_.end()) return;
  }
  if (notify && !reason.empty()) {
    send_safe(*s, Msg::kError, encode_error({Err::kEvicted, reason}));
    evictions_count_.inc();
    record_session_event(obs::LifecycleEvent::kEvicted, sid);
  }
  s->conn->close();
  {
    std::lock_guard<std::mutex> lk(mu_);
    close_session_locked(s);
  }
  idle_cv_.notify_all();
  reap_conns();
}

void ServiceRuntime::close_session_locked(const std::shared_ptr<Session>& s) {
  s->dead.store(true, std::memory_order_release);
  if (queue_.has_session(s->sid)) queue_.remove_session(s->sid);
  if (sessions_.erase(s->sid) > 0) {
    sessions_closed_.inc();
    record_session_event(obs::LifecycleEvent::kSessionClose, s->sid);
  }
}

void ServiceRuntime::send_safe(Session& s, Msg type,
                               const std::vector<std::byte>& payload) {
  try {
    s.conn->send(static_cast<uint8_t>(type), payload);
  } catch (const RuntimeError&) {
    // peer gone; teardown handles the rest
  }
}

void ServiceRuntime::reap_conns() {
  std::vector<std::unique_ptr<Conn>> dead;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    for (auto& c : conns_) {
      if (c->gone.load(std::memory_order_acquire) &&
          (c->session == nullptr || c->session->dead.load(std::memory_order_acquire)) &&
          c->conn->closed()) {
        dead.push_back(std::move(c));
      }
    }
    std::erase_if(conns_, [](const std::unique_ptr<Conn>& c) { return c == nullptr; });
  }
  // Destroyed outside the lock: Connection's destructor joins its threads.
  dead.clear();
}

void serve_until(ServiceRuntime&, const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

}  // namespace idxl::service
