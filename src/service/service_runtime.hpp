#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/connection.hpp"
#include "net/socket.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "runtime/api.hpp"
#include "service/fair_share.hpp"
#include "service/protocol.hpp"

namespace idxl::service {

/// Per-session resource limits. Defaults are deliberately generous; the
/// daemon and tests tighten them.
struct SessionQuota {
  /// Launches admitted but not yet retired (retirement happens at epoch
  /// flushes). Admission past this answers kQuotaInFlight immediately —
  /// a typed reject, never a hang.
  uint32_t max_in_flight = 256;
  /// Total root-region storage bytes a session may create. Checked by an
  /// atomic pre-scan of each setup batch (whole batch applies or none).
  uint64_t max_region_bytes = 64ull << 20;
  /// Ceiling on the fair-share weight a client may request in its Hello.
  uint32_t max_weight = 16;
};

struct ServiceConfig {
  SessionQuota quota;          ///< granted to every session
  uint32_t max_sessions = 1024;
  /// Epoch flush threshold: the scheduler fences the backend (retiring all
  /// issued launches, attributing faults, answering pending client fences)
  /// once this many launches are issued-but-unretired. The scheduler also
  /// flushes whenever it would otherwise go idle, so latency is bounded by
  /// load, not by this constant.
  uint32_t epoch_max_unretired = 256;
  bool enable_flight_recorder = true;
  std::size_t flight_recorder_capacity = obs::EventLog::kDefaultCapacity;
};

/// Long-lived multi-tenant front end over any RuntimeApi backend: accepts
/// launch streams over src/net framing from many concurrent clients, giving
/// each session an isolated region namespace (its ops replay into the shared
/// backend forest under per-session handle translation — separate region
/// trees, so sessions never interfere in dependence analysis), a quota, and
/// a fair-share weight honored by a weighted virtual-time admission queue.
///
/// Threading: every client connection runs its own receive thread, which
/// only decodes the admission-relevant prefix, enforces the in-flight quota
/// (typed immediate rejects) and enqueues; ONE scheduler thread owns every
/// backend interaction — task registration, setup replay, launches, fences,
/// reads — so the RuntimeApi single-threaded-issuance contract holds for
/// every backend by construction. Issued launches retire in epochs: the
/// scheduler fences when the unretired count crosses the threshold or when
/// it would otherwise go idle, attributing faults per session via
/// FaultReport::for_launch and answering all pending client fences with one
/// backend wait_all().
///
/// Backend notes: the replicated backends (sharded and dist) freeze forest
/// setup at their first launch, so sessions joining later cannot create
/// regions — see docs/SERVICE.md.
class ServiceRuntime {
 public:
  explicit ServiceRuntime(std::unique_ptr<RuntimeApi> backend,
                          ServiceConfig config = {});
  ~ServiceRuntime();

  ServiceRuntime(const ServiceRuntime&) = delete;
  ServiceRuntime& operator=(const ServiceRuntime&) = delete;

  /// Accept clients on 127.0.0.1:`port` (0 = ephemeral); returns the bound
  /// port. May be combined with listen_unix; each spawns one accept thread.
  uint16_t listen_tcp(uint16_t port = 0);
  void listen_unix(const std::string& path);

  /// Adopt an already-connected socket as a client (tests: socketpair).
  void serve_socket(net::Socket sock);

  /// Stop admitting (new sessions and new launches answer kDraining),
  /// finish every queued and issued launch, answer pending fences, then
  /// close every session. Idempotent; the destructor drains too.
  void drain();

  /// Forcibly tear a session down: queued launches answer kEvicted, issued
  /// ones are retired at a forced flush (their faults attributed normally),
  /// then the client gets kError{kEvicted, reason} and the connection
  /// closes. Returns false if the session id is unknown.
  bool evict(uint64_t session, std::string reason);

  std::size_t active_sessions() const;
  /// Items admitted but not yet issued (tests synchronize on this while the
  /// scheduler is paused).
  std::size_t queued() const;
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Service-level registry: per-tenant queue-wait, admission rejects,
  /// quota trips, session lifecycle. Backend metrics live in
  /// backend().metrics() — distinct registries, no collisions.
  obs::MetricsRegistry& metrics() { return metrics_; }
  /// The service's bounded event log: session, admission and frame events.
  obs::EventLog& flight_recorder() { return log_; }
  RuntimeApi& backend() { return *backend_; }

  /// Deterministic test gate: a paused scheduler admits and enqueues but
  /// issues nothing, so tests can stack up contention and assert exact
  /// fair-share order on resume.
  void pause_scheduler();
  void resume_scheduler();

  /// Tasks served to clients (sorted names; wire TaskFnId = index).
  const std::vector<std::string>& task_names() const { return task_names_; }

 private:
  struct Session {
    uint64_t sid = 0;
    std::string tenant;
    uint32_t weight = 1;
    SessionQuota quota;
    /// Admitted (queued or issued-but-unretired) launch-class items.
    std::atomic<uint32_t> in_flight{0};
    /// Evicted/closing: receive threads reject every further frame.
    std::atomic<bool> dead{false};
    /// The session's connection; owned by the Conn entry in conns_, which
    /// outlives the session (reaped only after `dead` is set).
    net::Connection* conn = nullptr;

    // --- scheduler-owned state ---
    std::vector<uint32_t> ispace_map;  ///< client id -> backend id
    std::vector<uint32_t> fspace_map;
    std::vector<uint32_t> part_map;
    std::vector<uint32_t> region_map;
    std::vector<uint64_t> fspace_bytes;  ///< client fspace id -> field bytes
    uint64_t region_bytes = 0;
    std::vector<uint64_t> epoch_issued;  ///< backend launch ids, this epoch
    FaultReport fault_log;               ///< cumulative, session-scoped
    std::vector<uint64_t> pending_fences;
    bool bye_pending = false;

    obs::Histogram queue_wait;  ///< idxl_task_queue_wait_ns{tenant}
    obs::Counter launches;      ///< idxl_service_launches_total{tenant}
  };

  /// One client connection (pre- or post-Hello). The Connection's receive
  /// thread drives on_frame; `session` is set by the Hello handshake.
  struct Conn {
    std::unique_ptr<net::Connection> conn;
    std::shared_ptr<Session> session;
    std::atomic<bool> gone{false};  ///< receive loop exited; safe to reap
  };

  /// One admitted unit of work, decoded and issued on the scheduler thread.
  struct WorkItem {
    Msg kind = Msg::kLaunch;
    std::vector<std::byte> payload;
    uint64_t enqueue_ns = 0;
  };

  void scheduler_main();
  void accept_main(net::Socket listener);
  void on_frame(Conn& c, net::Frame& frame);
  void on_close(Conn& c, const std::string& error);
  void handle_hello(Conn& c, const net::Frame& frame);
  /// Admission for launch-class frames: in-flight quota + drain/evict
  /// checks, typed immediate rejects, then enqueue under the fair queue.
  void admit(Conn& c, Msg kind, net::Frame& frame);
  void reject(Session& s, net::Connection& conn, uint64_t tag, Err code,
              const std::string& detail);

  // --- scheduler-side processing ---
  void process(const std::shared_ptr<Session>& s, WorkItem item);
  void do_setup(Session& s, uint64_t tag, const std::vector<std::byte>& body);
  void do_launch(Session& s, Msg kind, uint64_t tag,
                 const std::vector<std::byte>& body);
  void do_fill(Session& s, const Fill& f);
  void do_read(Session& s, const ReadReq& r);
  /// Fence the backend, retire every issued launch, attribute faults to
  /// sessions, answer pending fences and goodbyes.
  void flush_epoch();
  void finish_eviction(uint64_t sid, const std::string& reason, bool notify);
  void close_session_locked(const std::shared_ptr<Session>& s);
  void record_session_event(obs::LifecycleEvent ev, uint64_t sid,
                            uint64_t edge = obs::Event::kNone);
  void reap_conns();

  Err translate_index(Session& s, IndexLauncher& l, std::string* why);
  Err translate_single(Session& s, TaskLauncher& l, std::string* why);
  /// Atomic batch apply with quota pre-scan; fills `why` on failure.
  Err apply_setup(Session& s, const std::vector<SetupOp>& ops, std::string* why);

  void send_safe(Session& s, Msg type, const std::vector<std::byte>& payload);

  ServiceConfig config_;
  std::unique_ptr<RuntimeApi> backend_;
  obs::MetricsRegistry metrics_;
  obs::EventLog log_;
  net::NetObs net_obs_;

  std::vector<TaskFnId> task_ids_;  ///< wire task index -> backend TaskFnId
  std::vector<std::string> task_names_;

  mutable std::mutex mu_;  ///< sessions_, queue_, evictions_, scheduler state
  std::condition_variable cv_;        ///< wakes the scheduler
  std::condition_variable idle_cv_;   ///< drain() waits here
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  FairShareQueue<WorkItem> queue_;
  std::vector<std::pair<uint64_t, std::string>> evictions_;
  uint64_t next_sid_ = 1;
  uint64_t unretired_ = 0;  ///< issued launches not yet retired (mu_)
  bool fence_or_bye_pending_ = false;  ///< any session awaits a flush (mu_)
  bool paused_ = false;
  bool stop_ = false;
  std::atomic<bool> draining_{false};

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Conn>> conns_;

  std::thread scheduler_;
  std::vector<std::thread> acceptors_;
  std::vector<int> listener_fds_;  ///< closed to unblock accept threads
  std::mutex listen_mu_;

  // service-level metric cells
  obs::Counter sessions_opened_, sessions_closed_, evictions_count_;
  obs::Counter epochs_;
  obs::Histogram flush_ns_;
  obs::Gauge active_gauge_, queue_depth_gauge_, unretired_gauge_;
};

/// Convenience: serve forever until SIGTERM/SIGINT-style shutdown is
/// requested by the caller flipping `stop`; used by the idxl-served daemon.
void serve_until(ServiceRuntime& service, const std::atomic<bool>& stop);

}  // namespace idxl::service
