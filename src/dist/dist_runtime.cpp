#include "dist/dist_runtime.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <variant>

#include "dist/task_registry.hpp"
#include "dist/worker.hpp"
#include "obs/aggregate.hpp"
#include "support/error.hpp"

namespace idxl::dist {

namespace {

bool reports_equal(const FaultReport& a, const FaultReport& b) {
  return a.failures == b.failures && a.poisoned == b.poisoned;
}

/// A locally started worker rank's link ends: its driver link and, with
/// p2p, its end of every direct worker link.
struct LocalRank {
  net::Socket sock;
  WorkerDataPlane dp;
};

}  // namespace

DistributedRuntime::DistributedRuntime(DistConfig config)
    : config_(std::move(config)), forest_(std::make_shared<RegionForest>()) {
  IDXL_REQUIRE(config_.ranks >= 1, "DistConfig::ranks must be >= 1");
  IDXL_REQUIRE(config_.workers.empty() ||
                   config_.workers.size() == config_.ranks - 1,
               "DistConfig::workers must list exactly ranks - 1 endpoints");
  // In-process ranks share this process's cores: a pool per core on every
  // rank would oversubscribe the host ranks-fold.
  if (config_.in_process && config_.runtime.workers == 0)
    config_.runtime.workers = 1;
  // Pre-register the runtime helper tasks: Runtime's own lazy registration
  // would assign ids in first-use order, which cannot be replicated. Ids are
  // positional — fill is 0, the delta transfer task is 1 — on every rank.
  const TaskFn* fill = find_named_task("idxl_dist_fill");
  tasks_.emplace_back("idxl_dist_fill", *fill);
  fill_task_ = 0;
  const TaskFn* xfer = find_named_task("idxl_xfer");
  tasks_.emplace_back("idxl_xfer", *xfer);
  xfer_task_ = 1;
}

DistributedRuntime::~DistributedRuntime() {
  try {
    shutdown();
  } catch (const std::exception&) {
    // Destructor: peers may already be gone; nothing useful to do.
  }
}

TaskFnId DistributedRuntime::register_task(std::string name, TaskFn fn) {
  IDXL_REQUIRE(!started_,
               "register_task after the first launch: task ids are "
               "positional and must be fixed before workers start");
  tasks_.emplace_back(std::move(name), std::move(fn));
  return static_cast<TaskFnId>(tasks_.size() - 1);
}

std::string DistributedRuntime::fault_plan_spec() const {
  if (config_.runtime.fault_plan != nullptr)
    return config_.runtime.fault_plan->to_string();
  // Exec-mode daemons do not inherit this process's environment; forward
  // the env plan explicitly so IDXL_FAULT_PLAN works across processes.
  if (auto env = FaultPlan::from_env(); env != nullptr) return env->to_string();
  return {};
}

Setup DistributedRuntime::make_setup() const {
  Setup su;
  su.journal = forest_->setup_journal();
  for (const auto& [name, fn] : tasks_) su.tasks.push_back(name);
  for (uint32_t i = 0; i < forest_->region_count(); ++i) {
    const RegionId r{i};
    const RegionInfo& info = forest_->region(r);
    if (info.root != info.handle) continue;
    const std::size_t vol =
        static_cast<std::size_t>(forest_->storage_bounds(r).volume());
    for (const FieldInfo& fi : forest_->fields(info.fspace)) {
      Setup::Storage st;
      st.region = i;
      st.field = fi.id;
      const std::byte* data = forest_->field_data(r, fi.id);
      st.bytes.assign(data, data + vol * fi.size);
      su.storage.push_back(std::move(st));
    }
  }
  return su;
}

std::vector<net::Socket> DistributedRuntime::start_local_workers() {
  const uint32_t nranks = config_.ranks;
  const std::size_t nworkers = nranks - 1;
  // Every link exists before the first worker starts, so a forked child can
  // drop each fd that is not its own and a rank thread owns exactly its
  // ends. Direct worker<->worker links: one socketpair per worker pair,
  // rank a keeps the first end and rank b the second.
  const bool p2p = delta_ && config_.p2p && nworkers >= 2;
  std::vector<net::Socket> driver_ends;
  driver_ends.reserve(nworkers);
  std::vector<LocalRank> ranks(nworkers);
  for (LocalRank& r : ranks) {
    auto [driver_end, worker_end] = net::Socket::pair();
    driver_ends.push_back(std::move(driver_end));
    r.sock = std::move(worker_end);
    r.dp.delta = delta_;
    r.dp.fail_peer_links = config_.fail_peer_links;
    r.dp.xfer_task = xfer_task_;
  }
  if (p2p)
    for (uint32_t a = 1; a <= nworkers; ++a)
      for (uint32_t b = a + 1; b <= nworkers; ++b) {
        auto [end_a, end_b] = net::Socket::pair();
        ranks[a - 1].dp.peers.emplace_back(b, std::move(end_a));
        ranks[b - 1].dp.peers.emplace_back(a, std::move(end_b));
      }

  if (config_.in_process) {
    // Each rank rebuilds a private forest the way an exec-mode daemon does,
    // so no two ranks ever share region storage. The session is built here
    // and handed to its thread, which destroys it once run() returns —
    // like a forked child exiting.
    const Setup setup = make_setup();
    for (std::size_t i = 0; i < nworkers; ++i) {
      auto session = std::make_unique<WorkerSession>(
          std::move(ranks[i].sock), static_cast<uint32_t>(i + 1), nranks,
          config_.runtime, rebuild_forest(setup), tasks_,
          config_.heartbeat_period_ms, config_.peer_stall_window_ms,
          std::move(ranks[i].dp));
      rank_threads_.emplace_back([session = std::move(session)] {
        try {
          session->run();
        } catch (const std::exception&) {
          // Destroying the session closes its links; the driver reports
          // the lost rank at the next fence.
        }
      });
    }
    return driver_ends;
  }

  // Forking here is safe precisely because no Runtime, Connection or
  // monitor thread exists yet.
  for (std::size_t i = 0; i < nworkers; ++i) {
    const pid_t pid = ::fork();
    IDXL_REQUIRE(pid >= 0, "fork failed");
    if (pid == 0) {
      int status = 0;
      {
        LocalRank mine = std::move(ranks[i]);
        ranks.clear();        // closes every other worker's link ends
        driver_ends.clear();  // and the driver's
        try {
          WorkerSession session(std::move(mine.sock),
                                static_cast<uint32_t>(i + 1), nranks,
                                config_.runtime, forest_, tasks_,
                                config_.heartbeat_period_ms,
                                config_.peer_stall_window_ms, std::move(mine.dp));
          session.run();
        } catch (const std::exception&) {
          status = 1;
        }
      }
      ::_exit(status);
    }
    children_.push_back(pid);
    ranks[i] = LocalRank{};  // the parent drops the child's ends
  }
  return driver_ends;
}

std::vector<net::Socket> DistributedRuntime::start_exec_workers() {
  std::vector<net::Socket> socks;
  socks.reserve(config_.workers.size());
  for (const std::string& endpoint : config_.workers) {
    const std::size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
      socks.push_back(net::Socket::connect_unix(endpoint));
    } else {
      const std::string host = endpoint.substr(0, colon);
      const int port = std::stoi(endpoint.substr(colon + 1));
      socks.push_back(net::Socket::connect_tcp(host, static_cast<uint16_t>(port)));
    }
  }
  return socks;
}

void DistributedRuntime::ensure_started() {
  if (started_) return;
  started_ = true;
  const std::size_t nworkers = config_.ranks - 1;
  peer_errors_.assign(nworkers, "");
  worker_closed_.assign(nworkers, false);
  worker_metrics_.assign(nworkers, obs::MetricsSnapshot{});

  // Cluster tracing: IDXL_TRACE overrides DistConfig::trace_path, and a
  // requested trace forces profiling on everywhere. This must run before
  // the workers start below — locally started workers copy config_.runtime.
  trace_path_ = config_.trace_path;
  if (const char* v = std::getenv("IDXL_TRACE"); v != nullptr && v[0] != '\0') {
    if (v[0] == '0' && v[1] == '\0') {
      trace_path_.clear();
    } else {
      trace_path_ = (v[0] == '1' && v[1] == '\0') ? "idxl_trace.json" : v;
    }
  }
  if (!trace_path_.empty()) config_.runtime.enable_profiling = true;

  // Effective data-plane mode: delta needs at least one worker to talk to
  // and at most 64 ranks (the coherence map's currency bitmask). The
  // star-hub baseline has no such limits.
  delta_ = config_.delta_transfers && nworkers > 0 && config_.ranks <= 64;

  replicated_setup_ops_ = forest_->setup_journal().size();
  const bool exec_mode = !config_.workers.empty();
  std::vector<net::Socket> socks =
      nworkers == 0 ? std::vector<net::Socket>{}
      : exec_mode   ? start_exec_workers()
                    : start_local_workers();

  // The driver is rank 0 of the replicated run: the same Replica as any
  // worker, over links to every worker instead of one to the driver.
  replica_ = std::make_unique<Replica>(0, config_.ranks, config_.runtime, forest_, tasks_,
                                       delta_, xfer_task_);
  // Distributed watchdog: when the driver's own watchdog fires, follow the
  // local dump with the merged cross-rank view (worker watchdogs push their
  // stall state as kTelemetry; see distributed_stall_dump).
  if (obs::Watchdog* wd = local().watchdog())
    wd->set_on_stall([this](const obs::StallReport&) {
      std::fputs(distributed_stall_dump().c_str(), stderr);
    });

  if (nworkers == 0) return;

  net::NetObs obs;
  obs.metrics = &local().metrics();
  obs.log = &local().flight_recorder();
  obs.type_name = msg_name;
  // Every link carries outcomes to its worker, and payloads bound for it:
  // bytes the driver sends to a worker count as moved via the driver.
  ReplicaLinks links;
  links.direct_is_p2p = false;
  conns_.reserve(nworkers);
  for (std::size_t i = 0; i < nworkers; ++i) {
    conns_.push_back(std::make_unique<net::Connection>(
        std::move(socks[i]), "rank-" + std::to_string(i + 1), obs));
    const RankLink link{static_cast<uint32_t>(i + 1), conns_.back().get()};
    links.outcomes.push_back(link);
    links.direct.push_back(link);
  }
  replica_->attach(std::move(links));

  if (exec_mode) {
    const std::vector<std::byte> setup = encode_setup(make_setup());
    for (std::size_t i = 0; i < nworkers; ++i) {
      Hello h;
      h.rank = static_cast<uint32_t>(i + 1);
      h.nranks = config_.ranks;
      h.workers = config_.runtime.workers;
      h.heartbeat_period_ms = config_.heartbeat_period_ms;
      h.peer_stall_window_ms = config_.peer_stall_window_ms;
      h.delta_transfers = delta_ ? 1 : 0;
      h.enable_profiling = config_.runtime.enable_profiling ? 1 : 0;
      h.fault_plan = fault_plan_spec();
      conns_[i]->send(static_cast<uint8_t>(Msg::kHello), encode_hello(h));
      conns_[i]->send(static_cast<uint8_t>(Msg::kSetup), setup);
    }
  }

  for (std::size_t i = 0; i < nworkers; ++i)
    conns_[i]->start_recv(
        [this, i](net::Frame& frame) { on_worker_frame(i, frame); },
        [this, i](const std::string& error) { on_worker_close(i, error); });

  // Handshake: every worker acks (or is declared lost) before first launch.
  {
    std::unique_lock<std::mutex> lk(fence_mu_);
    fence_cv_.wait(lk, [&] {
      return hello_acks_ + closed_count_locked() >= nworkers;
    });
    for (std::size_t i = 0; i < nworkers; ++i)
      IDXL_REQUIRE(!worker_closed_[i], "worker rank " + std::to_string(i + 1) +
                                           " lost during handshake: " +
                                           peer_errors_[i]);
  }

  std::vector<net::Connection*> peers;
  for (auto& c : conns_) peers.push_back(c.get());
  monitor_ = std::make_unique<net::PeerMonitor>(
      std::move(peers), static_cast<uint8_t>(Msg::kPing),
      config_.heartbeat_period_ms, config_.peer_stall_window_ms,
      &local().metrics(), nullptr, &net::ClockTable::make_ping);
}

std::size_t DistributedRuntime::closed_count_locked() const {
  std::size_t n = 0;
  for (const bool c : worker_closed_)
    if (c) ++n;
  return n;
}

void DistributedRuntime::broadcast(Msg type, const std::vector<std::byte>& payload) {
  for (auto& c : conns_) try_send(*c, type, payload);
}

void DistributedRuntime::on_worker_frame(std::size_t worker, net::Frame& frame) {
  switch (static_cast<Msg>(frame.type)) {
    case Msg::kHelloAck: {
      {
        std::lock_guard<std::mutex> lock(fence_mu_);
        ++hello_acks_;
      }
      fence_cv_.notify_all();
      break;
    }
    case Msg::kTaskDone: {
      // Star topology: relay the owner's slice verbatim to the other
      // workers *before* completing locally, so on every per-connection
      // FIFO all outcomes a fence depends on precede the fence frame
      // itself. The rank named by data_dest is excluded — its copy of the
      // outcome is a kRegionData payload travelling a direct link or the
      // relay below.
      TaskDone td = decode_task_done(frame.payload);
      const std::size_t skip =
          (td.data_dest != TaskDone::kNoDest && td.data_dest != 0)
              ? static_cast<std::size_t>(td.data_dest - 1)
              : SIZE_MAX;
      std::size_t relays = 0;
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (i == worker || i == skip) continue;
        if (try_send(*conns_[i], Msg::kTaskDone, frame.payload)) ++relays;
      }
      replica_->count_forwarded(td.region_bytes.size() * relays, 0);
      if (td.data_dest != 0) {
        replica_->apply_done(std::move(td));
        break;
      }
      // The driver itself was the destination: apply the payload stashed by
      // the kRegionData frame that preceded this one on the same FIFO.
      // Completing here — not at kRegionData time — keeps the driver's
      // wait_all() blocked until this handler ran, so the relays above are
      // on every connection before any fence frame. (If wait_all() could
      // pass on the kRegionData alone, a fence could overtake this relay and
      // strand the other workers' externals behind their own fence handler.)
      RegionData data;
      {
        std::lock_guard<std::mutex> lock(xdata_mu_);
        auto it = driver_data_.find(td.first);
        IDXL_REQUIRE(it != driver_data_.end(),
                     "transfer outcome arrived without its data payload");
        data = std::move(it->second);
        driver_data_.erase(it);
      }
      replica_->apply_data(std::move(data));
      break;
    }
    case Msg::kRegionData: {
      RegionData rd = decode_region_data(frame.payload);
      if (rd.dest == 0) {
        // Terminates here — but the node completes at the sender's slim
        // kTaskDone, the next frame on this FIFO (see there for why). Only
        // stash the payload.
        std::lock_guard<std::mutex> lock(xdata_mu_);
        const uint64_t seq = rd.seq;
        driver_data_[seq] = std::move(rd);
        break;
      }
      // Relay leg of the fallback ladder: forward verbatim to the
      // destination. The second wire hop is counted — route labels measure
      // bytes on wires, not logical transfers.
      IDXL_REQUIRE(rd.dest <= conns_.size(),
                   "region-data frame routed to an invalid destination");
      uint64_t nbytes = 0;
      for (const RegionPatch& p : rd.patches) nbytes += p.bytes.size();
      if (try_send(*conns_[rd.dest - 1], Msg::kRegionData, frame.payload))
        replica_->count_forwarded(0, nbytes);
      break;
    }
    case Msg::kFenceAck: {
      FenceAck ack = decode_fence_ack(frame.payload);
      {
        std::lock_guard<std::mutex> lock(fence_mu_);
        fence_acks_[ack.fence].emplace(worker, std::move(ack));
      }
      fence_cv_.notify_all();
      break;
    }
    case Msg::kTelemetry: {
      std::variant<obs::RankTrace, obs::RankStall> t = decode_telemetry(frame.payload);
      obs::RankTrace* trace = std::get_if<obs::RankTrace>(&t);
      {
        std::lock_guard<std::mutex> lock(fence_mu_);
        if (trace != nullptr) {
          telemetry_[trace->rank] = std::move(*trace);
        } else {
          obs::RankStall& stall = std::get<obs::RankStall>(t);
          stall_push_[stall.rank] = std::move(stall);
        }
      }
      if (trace != nullptr) fence_cv_.notify_all();
      break;
    }
    case Msg::kBye:
      break;  // the recv loop ends right after; on_worker_close records it
    case Msg::kPing:
      replica_->answer_probe(static_cast<uint32_t>(worker + 1), *conns_[worker],
                             frame.payload);
      break;
    default:
      // Throwing here lands in recv_loop's catch: the connection is
      // reported closed with this message.
      IDXL_REQUIRE(false, "driver received unexpected frame type " +
                              std::to_string(frame.type) + " (" +
                              msg_name(frame.type) + ")");
  }
}

void DistributedRuntime::on_worker_close(std::size_t worker,
                                         const std::string& error) {
  bool teardown;
  {
    std::lock_guard<std::mutex> lock(fence_mu_);
    worker_closed_[worker] = true;
    if (!error.empty() && peer_errors_[worker].empty())
      peer_errors_[worker] = error;
    teardown = tearing_down_;
  }
  if (!teardown) {
    // Outcomes owned by this worker will never arrive; resolve its
    // externals as cancelled so wait_all()/teardown cannot hang. (Externals
    // owned by still-live workers are cancelled too — a lost rank ends the
    // run, matching the fence error below.)
    local().abandon_externals("worker rank " + std::to_string(worker + 1) +
                              " lost: " +
                              (error.empty() ? "connection closed" : error));
  }
  fence_cv_.notify_all();
}

bool DistributedRuntime::fence(bool nothrow, bool metrics) {
  replica_->quiesce();
  const std::size_t nworkers = conns_.size();
  if (nworkers == 0) return true;
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(fence_mu_);
    id = ++next_fence_;
  }
  broadcast(Msg::kFence, encode_fence(Fence{id, metrics}));
  std::map<std::size_t, FenceAck> acks;
  std::string problem;
  {
    std::unique_lock<std::mutex> lk(fence_mu_);
    fence_cv_.wait(lk, [&] {
      const auto it = fence_acks_.find(id);
      for (std::size_t i = 0; i < nworkers; ++i) {
        const bool acked = it != fence_acks_.end() && it->second.count(i) != 0;
        if (!acked && !worker_closed_[i]) return false;
      }
      return true;
    });
    acks = std::move(fence_acks_[id]);
    fence_acks_.erase(id);
    // A snapshot the fence asked for refreshes the per-rank cluster view.
    for (const auto& [worker, ack] : acks)
      if (!ack.metrics.empty())
        worker_metrics_[worker] = deserialize_metrics_snapshot(ack.metrics);
    for (std::size_t i = 0; i < nworkers; ++i) {
      if (acks.count(i) != 0) continue;
      problem = "worker rank " + std::to_string(i + 1) +
                " lost before fence " + std::to_string(id) + ": " +
                (peer_errors_[i].empty() ? "connection closed"
                                         : peer_errors_[i]);
      break;
    }
  }
  if (problem.empty()) {
    const FaultReport mine = local().fault_report();
    for (const auto& [worker, ack] : acks) {
      if (reports_equal(mine, ack.report)) continue;
      problem = "fault-report divergence at fence " + std::to_string(id) +
                ": rank " + std::to_string(worker + 1) + " disagrees with "
                "rank 0 (control replication bug — reports must be "
                "identical on every rank)";
      break;
    }
  }
  if (problem.empty()) return true;
  if (nothrow) return false;
  throw RuntimeError(problem);
}

void DistributedRuntime::require_replicated_forest() const {
  // Worker ranks hold the forest as it was at the first launch, grown since
  // only by the subregions replicated launches create. A region, partition,
  // field or subregion the driver made any other way has no counterpart
  // there — and shifts the ids of every subregion created after it.
  IDXL_REQUIRE(forest_->setup_journal().size() == replicated_setup_ops_,
               "the region forest changed after the first launch: worker "
               "ranks cannot see regions, partitions, fields or subregions "
               "created since — create them before launching");
}

LaunchResult DistributedRuntime::execute(const TaskLauncher& launcher) {
  ensure_started();
  if (conns_.empty()) return local().execute(launcher);
  require_replicated_forest();
  // An unserializable launcher must throw before any rank sees it.
  (void)serialize_task_launcher(launcher);
  // Rank 0 maps and plans before the broadcast, and issues after it, as
  // execute_index does.
  return replica_->execute(launcher, [&](const TaskLauncher& stamped) {
    broadcast(Msg::kSingle, serialize_task_launcher(stamped));
  });
}

LaunchResult DistributedRuntime::execute_index(const IndexLauncher& launcher) {
  ensure_started();
  if (conns_.empty()) return local().execute_index(launcher);
  require_replicated_forest();
  // An unserializable launcher must throw before any rank (rank 0
  // included) observes the launch.
  (void)serialize_launcher(launcher);
  // Rank 0 resolves the launch first: a launcher it refuses (a color
  // outside a partition, an unknown field) throws before rank 0 takes a
  // launch id, plans a transfer or creates a subregion, and no worker sees
  // it. Resolution is the only step that refuses a launch, so rank 0 then
  // plans it, issues its transfers and broadcasts the descriptor before it
  // expands the launch: the workers expand it alongside rank 0 instead of
  // after it. The descriptor carries no plan and no analysis: every rank
  // resolves, plans and analyzes its own copy of the stream. Its launch id
  // is the one rank 0 takes next; every rank asserts it takes the same,
  // which also catches a rank whose plan issued a different number of
  // transfers.
  const LaunchResult result =
      replica_->execute_index(launcher, [&](const IndexLauncher& stamped) {
        broadcast(Msg::kLaunch, serialize_launcher(stamped));
      });
  // Every rank creates this launch's subregions in the same order.
  replicated_setup_ops_ = forest_->setup_journal().size();
  return result;
}

void DistributedRuntime::wait_all() {
  if (!started_) return;
  fence(/*nothrow=*/false);
}

void DistributedRuntime::sync_for_read() {
  if (started_ && delta_ && !conns_.empty()) {
    // Recall: bring every span some worker produced back to rank 0 so a
    // direct read of the forest sees current data. Every rank plans the
    // same transfers from its own map; spans current here ship nothing.
    replica_->recall();
    broadcast(Msg::kRecall, {});
  }
  wait_all();
}

DataPlaneStats DistributedRuntime::data_plane_stats() {
  if (replica_ == nullptr) return {};
  // A fence pulls every worker's current counters in via its ack.
  if (!conns_.empty()) fence(/*nothrow=*/true, /*metrics=*/true);
  DataPlaneStats total = data_plane_of(local().metrics().snapshot());
  std::lock_guard<std::mutex> lock(fence_mu_);
  for (const obs::MetricsSnapshot& m : worker_metrics_) total += data_plane_of(m);
  return total;
}

obs::MetricsSnapshot DistributedRuntime::cluster_metrics() {
  ensure_started();
  // A fence refreshes every worker's snapshot via its ack.
  if (!conns_.empty()) fence(/*nothrow=*/true, /*metrics=*/true);
  std::vector<std::pair<uint32_t, obs::MetricsSnapshot>> ranks;
  ranks.emplace_back(0, local().metrics().snapshot());
  {
    std::lock_guard<std::mutex> lock(fence_mu_);
    for (std::size_t i = 0; i < worker_metrics_.size(); ++i)
      if (!worker_metrics_[i].families.empty())
        ranks.emplace_back(static_cast<uint32_t>(i + 1), worker_metrics_[i]);
  }
  return obs::aggregate_cluster(ranks);
}

std::string DistributedRuntime::cluster_prometheus() {
  return cluster_metrics().prometheus_text();
}

std::string DistributedRuntime::cluster_metrics_json() {
  return cluster_metrics().json();
}

obs::ClusterTrace DistributedRuntime::collect_cluster_trace() {
  ensure_started();
  obs::ClusterTrace trace;
  if (!conns_.empty()) {
    // Quiesce first: workers' recv threads are their issuing threads, and a
    // telemetry read of the span buffers is only safe with idle pools.
    fence(/*nothrow=*/true);
    {
      std::lock_guard<std::mutex> lock(fence_mu_);
      telemetry_.clear();
    }
    broadcast(Msg::kTelemetryReq, {});
    std::unique_lock<std::mutex> lk(fence_mu_);
    fence_cv_.wait_for(lk, std::chrono::seconds(10), [&] {
      return telemetry_.size() + closed_count_locked() >= conns_.size();
    });
  }
  obs::RankTrace mine = replica_->telemetry();
  std::lock_guard<std::mutex> lock(fence_mu_);
  telemetry_[0] = std::move(mine);
  for (auto& [rank, t] : telemetry_) {
    const net::ClockEstimate est = replica_->clock_estimate(rank);
    t.clock_offset_ns = est.valid ? est.offset_ns : 0;
    t.rtt_ns = est.valid ? est.rtt_ns : 0;
    trace.ranks.push_back(std::move(t));
  }
  telemetry_.clear();
  return trace;
}

void DistributedRuntime::write_merged_trace(const std::string& path) {
  collect_cluster_trace().write_chrome_trace(path);
}

std::string DistributedRuntime::distributed_stall_dump() {
  obs::RankStall mine = replica_->stall_telemetry(local().stall_report());
  std::vector<obs::RankStall> ranks;
  {
    std::lock_guard<std::mutex> lock(fence_mu_);
    stall_push_[0] = std::move(mine);
    for (const auto& [rank, stall] : stall_push_) ranks.push_back(stall);
  }
  return obs::merged_stall_dump(ranks);
}

FaultReport DistributedRuntime::fault_report() const {
  return replica_ != nullptr ? replica_->runtime().fault_report() : FaultReport{};
}

RuntimeStats DistributedRuntime::stats() const {
  return replica_ != nullptr ? replica_->runtime().stats() : RuntimeStats{};
}

obs::MetricsRegistry& DistributedRuntime::metrics() {
  ensure_started();
  return local().metrics();
}


void DistributedRuntime::fill_bytes_region(RegionId r, FieldId f,
                                           const void* pattern,
                                           std::size_t size) {
  TaskLauncher launcher = make_fill_launcher(*forest_, r, f, pattern, size);
  launcher.task = fill_task_;
  execute(launcher);
}

void DistributedRuntime::shutdown() {
  // Startup may have failed before the driver runtime existed; any worker
  // already started then lost its driver link and is exiting on its own.
  if (started_ && replica_ != nullptr) {
    try {
      stop_workers();
    } catch (const std::exception&) {
      // Reap regardless: dropping the links ends every worker, and an
      // unjoined rank thread would end the program.
      conns_.clear();
    }
  }
  for (const pid_t pid : children_) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  children_.clear();
  for (std::thread& t : rank_threads_) t.join();
  rank_threads_.clear();
  replica_.reset();
  started_ = false;
}

void DistributedRuntime::stop_workers() {
  if (!trace_path_.empty()) {
    // Workers are quiescent after the fence inside collect_cluster_trace()
    // and still listening — the last moment every rank's spans are whole.
    try {
      write_merged_trace(trace_path_);
    } catch (const std::exception&) {
      // Tracing must never turn a clean shutdown into a failure.
    }
  }
  if (!conns_.empty()) {
    fence(/*nothrow=*/true);
    if (monitor_ != nullptr) monitor_->stop();
    {
      std::lock_guard<std::mutex> lock(fence_mu_);
      tearing_down_ = true;
    }
    broadcast(Msg::kShutdown, {});
    {
      std::unique_lock<std::mutex> lk(fence_mu_);
      fence_cv_.wait_for(lk, std::chrono::seconds(30), [&] {
        return closed_count_locked() >= conns_.size();
      });
    }
    for (auto& c : conns_) c->close();
    conns_.clear();
  }
}

}  // namespace idxl::dist
