#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>

#include "analysis/hybrid.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"
#include "runtime/api.hpp"
#include "runtime/dependence.hpp"
#include "runtime/fault.hpp"
#include "runtime/physical.hpp"
#include "runtime/task_graph.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/types.hpp"

namespace idxl {

struct RuntimeConfig {
  /// Worker threads for the real executor (0 = hardware concurrency).
  unsigned workers = 0;
  /// When false, execute_index() degrades to the per-point task loop — the
  /// "No IDX" configurations of the paper's evaluation.
  bool enable_index_launches = true;
  /// §4: dynamic checks can be disabled once a program has been verified.
  bool enable_dynamic_checks = true;
  /// Extended static classifier (modular / monotone-quadratic families) —
  /// launches it discharges skip their dynamic checks entirely.
  bool extended_static_analysis = false;
  /// Run the event log in capture mode: keep every record, with spans
  /// (issuance, dependence analysis, safety checks, task execution, ...)
  /// and dependence edges, for Runtime::profiler()'s span and task-graph
  /// views (Chrome trace, critical path, task_graph_dot()). Off by default:
  /// a pure span then costs one branch per instrumentation point.
  bool enable_profiling = false;
  /// Run the event log (obs/event_log.hpp) in bounded mode when not
  /// profiling: per-thread rings of issued/analyzed/ready/running/complete
  /// records, the always-on black box stall dumps read. Cheap (batched
  /// appends); on by default. Env override: IDXL_FLIGHT_RECORDER=0/1.
  bool enable_flight_recorder = true;
  /// Records retained per recording thread in bounded mode.
  /// Env: IDXL_FLIGHT_CAPACITY (1 to 2^32-1).
  std::size_t flight_recorder_capacity = obs::EventLog::kDefaultCapacity;
  /// Stall watchdog: a monitor thread that dumps the waits-for graph,
  /// lifecycle tail and a metrics snapshot when tasks stay pending
  /// with no completions for a whole stall window. Off by default (it adds
  /// a live-task table update per task). Env: IDXL_WATCHDOG=0/1.
  bool enable_watchdog = false;
  /// The watchdog's settings. Env: IDXL_WATCHDOG_PERIOD_MS
  /// (check_period_ms) and IDXL_WATCHDOG_WINDOW_MS (stall_window_ms), each
  /// 1 to 2^32-1; IDXL_WATCHDOG_ABORT (abort_on_stall);
  /// IDXL_WATCHDOG_CANCEL (cancel_on_stall, which runs Runtime::cancel_all
  /// so blocked work drains into the FaultReport instead of hanging);
  /// IDXL_WATCHDOG_DUMP (dump_path).
  obs::WatchdogConfig watchdog;
  /// Deterministic fault-injection plan (tests, soak CI). Every task
  /// execution consults should_fail(launch, point, attempt); a hit fails
  /// the attempt as FaultKind::kInjected. The IDXL_FAULT_PLAN env spec
  /// (see FaultPlan::parse) overrides this field.
  std::shared_ptr<const FaultPlan> fault_plan;

  // --- distributed-execution hooks (src/dist; docs/DISTRIBUTED.md) -------
  /// Point-ownership predicate. When set, points for which it returns false
  /// become *external* nodes: placeholders in the dependence graph that
  /// never run a body locally and complete only when the owning process
  /// delivers their outcome through Runtime::complete_external(). Every
  /// rank of a distributed run issues the identical launch stream, so seq
  /// numbers (and hence the graph) agree across processes.
  std::function<bool(uint64_t launch, const Point& point, const Domain& domain)>
      point_owned;
  /// Called on the executing worker thread after an *owned* task body
  /// succeeds, while its TaskContext (mapped regions included) is still
  /// alive — the distributed runtime extracts written-region bytes and the
  /// return value here and ships them to the other processes.
  std::function<void(uint64_t seq, uint64_t launch, const Point& point,
                     TaskContext& ctx)>
      on_task_success;
  /// Called when an *owned* task settles in a terminal fault state (external
  /// nodes are excluded: their fault came from the owner in the first
  /// place, so re-broadcasting would loop).
  std::function<void(const TaskFault& fault)> on_task_fault;
};

/// The real, in-process runtime: sequential task issuance with implicit
/// parallel execution on a thread pool, Legion-style. One instance per
/// "program". Issuance calls (execute, execute_index, region/partition
/// creation) must come from a single thread; task bodies run concurrently.
class Runtime : public RuntimeApi {
 public:
  /// `forest` shares a region forest with the caller (the distributed
  /// runtime pre-builds it before forking workers); default is a private
  /// one.
  explicit Runtime(RuntimeConfig config = {},
                   std::shared_ptr<RegionForest> forest = nullptr);
  ~Runtime() override;

  RegionForest& forest() override { return *forest_; }
  const RuntimeConfig& config() const { return config_; }

  /// Register a task body under a new id.
  TaskFnId register_task(std::string name, TaskFn fn) override;

  /// A launch resolved before it has had any effect: what resolve() returns
  /// and execute()/execute_index() issue. The bulk expansion, the task
  /// loop, tracing and the distributed delta planner all read it. Issue it
  /// with its launcher on the runtime that resolved it, and inside a trace
  /// scope before any other launch.
  class Resolution {
   public:
    /// Index launch: the region the launch's `i`-th point (in domain order)
    /// receives through argument `a`.
    RegionId region(std::size_t i, std::size_t a) const {
      return (*tables_[a])[cranks_[i * tables_.size() + a]];
    }

   private:
    friend class Runtime;
    std::vector<uint64_t> masks_;  ///< each argument's field mask
    /// Index launch: each argument's subregions by color rank, and each
    /// point's color rank per argument, point-major.
    std::vector<const std::vector<RegionId>*> tables_;
    std::vector<uint32_t> cranks_;
    std::vector<PhysicalRegion> regions_;  ///< single task: its mapped regions
    std::optional<std::size_t> trace_;  ///< in a trace scope: the launch's record
  };

  /// Resolve an index launch: evaluate every functor at every point and
  /// check its color, resolve each argument's field list, check a trace
  /// replay, and only then materialize the subregion tables, the launch's
  /// first forest change, which cannot throw (DESIGN.md §3.4).
  Resolution resolve(const IndexLauncher& launcher);
  /// Resolve a single task: map its regions (and check a trace replay).
  Resolution resolve(const TaskLauncher& launcher);

  /// Launch a single task (program-order semantics; §2).
  LaunchResult execute(const TaskLauncher& launcher) override {
    return execute(launcher, resolve(launcher));
  }
  LaunchResult execute(const TaskLauncher& launcher, Resolution resolution);

  /// Launch |domain| tasks as one index launch (§3). Runs the hybrid safety
  /// analysis; an unsafe launch falls back to the equivalent sequential
  /// task loop (Listing 3's generated branch).
  LaunchResult execute_index(const IndexLauncher& launcher) override {
    return execute_index(launcher, resolve(launcher));
  }
  /// `expanding`, when set, is called once the launch is analyzed and
  /// before its first task is issued, with whether it runs as an index
  /// launch (false: the task loop).
  LaunchResult execute_index(const IndexLauncher& launcher, Resolution resolution,
                             const std::function<void(bool index_launch)>& expanding = {});

  /// Dynamic tracing (Lee et al. [20]): capture the dependence analysis of
  /// the bracketed launches on first execution, replay it afterwards.
  /// Traces are fenced on both sides (a legal restriction of parallelism).
  /// A launch that diverges from the capture throws RuntimeError; the
  /// capture is dropped and the rest of the scope runs untraced.
  void begin_trace(uint32_t trace_id);
  void end_trace(uint32_t trace_id);

  /// Block until all issued tasks have executed — including external
  /// (remote-owned) nodes, which complete when their outcomes arrive via
  /// complete_external().
  void wait_all() override;

  /// Structured outcome of every failure so far: root causes plus the
  /// poisoned closure, sorted by task seq (deterministic for a seeded
  /// FaultPlan). Call after wait_all(); empty report = clean run.
  FaultReport fault_report() const override { return faults_.report(); }

  /// Deliver the terminal outcome of external task `seq` (it was issued
  /// with RuntimeConfig::point_owned returning false). Thread-safe; called
  /// by the distributed runtime's receive threads. Outcomes may arrive
  /// before the launch frame that issues `seq` has been processed — they
  /// are buffered and applied at issue time.
  void complete_external(uint64_t seq, RemoteOutcome outcome);

  /// Resolve every still-pending external node as kCancelled with `why` as
  /// the message. Called when the peer that owned those tasks is gone, so
  /// wait_all() and the destructor cannot hang on outcomes that will never
  /// arrive. Idempotent; safe to call with no externals pending.
  void abandon_externals(const std::string& why);

  /// Debug introspection: seq of every external node still waiting for its
  /// remote outcome. Thread-safe snapshot.
  std::vector<uint64_t> pending_externals() const;

  /// The launch id the next execute()/execute_index() will be assigned.
  /// Under control replication every rank issues the identical stream, so
  /// the driver can stamp this value into a descriptor's trace context and
  /// replicas assert their own counter agrees (divergence = replication
  /// bug). Only meaningful from the issuing thread.
  uint64_t peek_next_launch_id() const { return next_launch_id_; }
  /// The seq the next issued task will be assigned; a launch's tasks take
  /// consecutive seqs in domain order. Only meaningful from the issuing
  /// thread.
  uint64_t peek_next_seq() const { return next_seq_; }

  /// Drop accumulated fault records and re-arm after cancel_all(), so the
  /// runtime can be reused for another program phase.
  void clear_faults();

  /// Cooperatively cancel the run: queued tasks terminate as kCancelled
  /// before their bodies start; running bodies observe
  /// TaskContext::cancelled(). The watchdog's cancel_on_stall action.
  void cancel_all();

  // read_region<T>() and fill<T>() are inherited from RuntimeApi:
  // sync_for_read() is a no-op here (callers wait_all() first, as before)
  // and fill lowers to the fill_bytes_region task below.
  void sync_for_read() override {}

  /// Fill a field of a region with a byte pattern (at most 16 bytes), as a
  /// task: the fill is ordered against every launch touching that data, so
  /// it is safe to issue mid-program (unlike raw top-level accessor writes,
  /// which are only valid before the first launch or after wait_all()).
  void fill_bytes_region(RegionId r, FieldId f, const void* pattern,
                         std::size_t size) override;

  /// Live snapshot of the runtime counters, assembled from one pass over
  /// the metrics registry (obs::MetricsRegistry::snapshot()): every field
  /// is a registry-backed atomic, so stats() is safe to call from any
  /// thread while tasks run, and one call reads all counters in a single
  /// traversal instead of field-by-field at different times.
  RuntimeStats stats() const override;

  /// The metrics registry backing stats(): every runtime counter, the
  /// verdict-cache and dependence-tracker counters, pool gauges and task
  /// latency histograms, one `snapshot()` away — exported as Prometheus
  /// text or JSON. Per-runtime (concurrent runtimes never share series);
  /// obs::MetricsRegistry::global() is the place for application metrics.
  obs::MetricsRegistry& metrics() override { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The runtime's one event log, under the name of each view family:
  /// flight_recorder() for the lifecycle events (flight dump, watchdog
  /// tail, counters), profiler() for the capture-mode spans (Chrome trace,
  /// summary, critical path). Bounded and always on by default;
  /// RuntimeConfig::enable_profiling switches it to capture mode.
  obs::EventLog& flight_recorder() { return event_log_; }
  const obs::EventLog& flight_recorder() const { return event_log_; }
  obs::EventLog& profiler() { return event_log_; }
  const obs::EventLog& profiler() const { return event_log_; }

  /// Switch event recording on or off at run time (e.g. enable it only
  /// around a suspect phase). Requires a quiescent runtime — call after
  /// wait_all(); in-flight work reads the switch unsynchronized. Recording
  /// resumes only if the log was constructed enabled.
  void set_flight_recording(bool on) { log_ = on ? &event_log_ : nullptr; }

  /// The stall watchdog, or nullptr unless RuntimeConfig::enable_watchdog
  /// (or IDXL_WATCHDOG=1) switched it on.
  obs::Watchdog* watchdog() { return watchdog_.get(); }

  /// Build a stall report on demand: the waits-for graph of issued-but-
  /// incomplete tasks (populated only while the watchdog is enabled), the
  /// event log's lifecycle tail, and a metrics snapshot. The same dump the
  /// watchdog emits, minus the progress-window fields.
  obs::StallReport stall_report() const;

  /// The worker pool. Tests use pause()/resume() as a deterministic gate:
  /// launches issued against a paused pool enqueue without executing, so
  /// every issued-but-ungated task is still live when later launches are
  /// analyzed — no timing assumptions.
  ThreadPool& pool() { return *pool_; }

  /// The launch-site verdict cache: safety verdicts reused across repeated
  /// launches of the same site (functor fingerprints, domain, privileges).
  /// Opaque functors are never cached.
  VerdictCache& verdict_cache() { return verdict_cache_; }
  const VerdictCache& verdict_cache() const { return verdict_cache_; }

 private:
  friend class Future;  // Future::get records its reduction span

  /// One launch of a dynamic trace (recorded per launch, not per task):
  /// what replay checks (task, domain or single-task point, each task's
  /// region-argument index spaces), what the capture returned, and each
  /// task's predecessors as trace-local indices (seq minus the first seq of
  /// the trace), packed by task.
  struct TracedLaunch {
    TaskFnId fn = 0;
    Domain domain;  ///< index launches; empty for single tasks
    Point point;    ///< single tasks
    uint64_t first = 0;  ///< trace-local index of the launch's first task
    bool ran_as_index_launch = false;
    SafetyOutcome outcome = SafetyOutcome::kSafeStatic;
    std::vector<uint32_t> ispaces;  ///< per task, one per region argument
    std::vector<uint32_t> dep_offsets{0};  ///< task i: deps[offsets[i], offsets[i+1])
    std::vector<uint32_t> deps;
  };
  struct Trace {
    bool captured = false;
    std::vector<TracedLaunch> launches;
  };

  /// Per-launch state every task of the launch shares (body, scalar
  /// arguments, Future slots, retry policy, every task's mapped regions);
  /// the bulk expansion also keeps the chunk jobs' prototype regions and
  /// color ranks here. Defined in runtime.cpp; a friend so it can hold
  /// ProtoTables.
  friend struct LaunchArena;
  using ArenaPtr = std::shared_ptr<LaunchArena>;
  /// The arena of a launch of `tasks` tasks over `domain`.
  template <typename Launcher>
  ArenaPtr make_arena(const Launcher& launcher, const Domain& domain, uint64_t launch,
                      std::size_t tasks);
  /// Create the node of the launch's next task, as element `i` of `block`,
  /// and count it. The returned pointer aliases the block. The bulk
  /// expansion allocates one block per chunk of points; every other task
  /// is a block of one.
  TaskNodePtr new_node(const std::shared_ptr<TaskNode[]>& block, std::size_t i,
                       const LaunchArena& arena, const Point& point);
  /// Run the launch's body over the node's slice of the arena's region
  /// table or, for a remote-owned node, apply the owner's outcome to it;
  /// either way the return value fills the node's Future slot.
  void run_body(TaskNode& node);

  /// The next launch id, checked first against a replicated descriptor's
  /// (a mismatch means this rank's issue stream diverged from the driver's).
  uint64_t take_launch_id(const obs::TraceContext& ctx);

  /// Issue one task outside the bulk expansion (single tasks, task-loop
  /// points), whose regions are already mapped into its slice of the
  /// arena's region table: discover dependencies (or replay them from
  /// `traced`), hand to the scheduler. `masks` holds each argument's field
  /// mask. `rank` is the task's index in its launch: its Future slot and
  /// its place in the trace record.
  void issue_point_task(const ArenaPtr& arena, const Point& point,
                        std::span<const uint64_t> masks, std::size_t rank,
                        TracedLaunch* traced);

  void expand_as_task_loop(const IndexLauncher& launcher, const Resolution& res,
                           const ArenaPtr& arena, TracedLaunch* traced);
  /// Hybrid safety analysis of an index launch (or its assume_verified
  /// claim), with the verdict counted.
  SafetyReport analyze_safety(const IndexLauncher& launcher, std::span<const uint64_t> masks,
                              uint64_t launch_id);

  /// Bulk expansion of a safe index launch: the issuing thread wires
  /// dependence edges through the tracker, or from the trace being
  /// replayed, while chunk jobs on pool workers copy each point's prototype
  /// regions into the arena, gated by an extra "closure guard" on each
  /// node's pending count.
  void expand_index_launch(const IndexLauncher& launcher, Resolution& res,
                           const ArenaPtr& arena, TracedLaunch* traced);
  /// Shared tail of every issue path once `deps` is known: record the
  /// edges (stats, event log, watchdog), take the closure guard
  /// the caller releases once the node's arena and regions are attached,
  /// publish a remote-owned node to complete_external(), and schedule.
  void wire_node(const LaunchArena& arena, const TaskNodePtr& node,
                 const std::vector<TaskNodePtr>& deps);

  // --- tracing, shared by every issue path ---
  /// The index of the trace record of a launch being resolved, none outside
  /// a trace scope. A capture opens it, with `ispaces` (the launch's
  /// region-argument index spaces, per task and argument). A replay checks
  /// the launch against the next captured one before it has any effect; a
  /// mismatch abandons the trace (trace_diverged).
  std::optional<std::size_t> trace_launch(TaskFnId fn, const Domain& domain,
                                          const Point& point, std::vector<uint32_t> ispaces);
  /// The record a resolution is issued with (null outside a trace scope);
  /// throws, before the launch has any effect, if the scope changed since.
  TracedLaunch* trace_record(const Resolution& res);
  /// Replay: wire task `task` of `rec` to its captured predecessors.
  /// Capture: record the in-trace members of `deps` as its predecessors.
  void trace_deps(TracedLaunch& rec, std::size_t task, const TaskNodePtr& node,
                  std::vector<TaskNodePtr>& deps);
  /// A replay diverged from its capture: drop the capture, fence what was
  /// replayed, run the rest of the trace scope untraced, and throw.
  [[noreturn]] void trace_diverged(const char* what);

  /// Create the registry-backed stat cells and register the collector that
  /// refreshes externally-owned gauges (tracker, caches, pool, event log).
  void init_metrics();
  /// Drop one guard from `node`'s pending count; the last one readies it.
  void release(const TaskNodePtr& node);

  void schedule(const TaskNodePtr& node, const std::vector<TaskNodePtr>& deps);
  /// The pool job for a ready `node`: run it, then each successor a
  /// completion kept for this worker (fan_out), in a loop until none is
  /// left. The job holds the node through TaskNode::queued, so the closure
  /// fits std::function's inline buffer.
  std::function<void()> node_job(TaskNodePtr node);
  /// Hand the nodes of `block` at positions `ready`, which a chunk job
  /// readied together, to the pool as one list: up to one runner job per
  /// worker, each running the next unclaimed node (and its kept successors)
  /// until the list is empty. A chunk of tasks with no pending predecessor
  /// then costs a few pool jobs instead of one per task.
  void submit_ready(const std::shared_ptr<TaskNode[]>& block, std::span<const uint8_t> ready);
  /// Run `node`, then each successor a completion kept for this worker.
  void run_chain(TaskNodePtr node);
  /// Execute one attempt of `node` (or settle it without running: poisoned,
  /// cancelled, remote outcome). Returns the successor to run next on this
  /// worker, if its completion kept one.
  TaskNodePtr run_node(const TaskNodePtr& node);

  /// Settle `node` in a terminal fault state: record the TaskFault, emit
  /// metrics + lifecycle event, then complete the node so successors drain —
  /// propagating `root` into their poison_root (atomic min) on the way.
  /// `attempts` is the number of body executions (0 when the body never ran).
  /// Returns fan_out's kept successor.
  TaskNodePtr finish_fault(const TaskNodePtr& node, FaultKind kind, uint64_t root,
                           uint32_t attempts, std::string message);
  /// Count `node` done, drop it from the live table and release what its
  /// body ran with, then fan out (`poison` as in fan_out). Every terminal
  /// path ends here.
  TaskNodePtr settle(const TaskNodePtr& node, uint64_t poison);
  /// Completion fan-out shared by the success and fault paths: complete the
  /// node, decrement successors (stamping `poison` into poison_root first
  /// when != kNone sentinel), record kReady events and drop the node's
  /// successor references. One newly ready successor is returned for this
  /// worker to run next; the rest go to the pool in one batch (all of them
  /// while the pool is paused).
  TaskNodePtr fan_out(const TaskNodePtr& node, uint64_t poison);
  obs::Counter& fault_cell(FaultKind kind);

  /// Registry-backed counter/histogram handles for every runtime stat —
  /// the write side of stats(). Updates are relaxed atomic adds.
  struct StatsCells {
    obs::Counter runtime_calls, single_launches, index_launches, point_tasks,
        tasks_completed, tasks_inline, dependence_edges, safe_static, safe_dynamic,
        safe_unchecked, assumed_verified, unsafe, dynamic_check_points,
        traced_replayed, cache_hit_launches, cache_miss_launches;
    obs::Counter fault_exception, fault_explicit, fault_injected, fault_timeout,
        fault_cancelled, fault_poisoned, fault_injections, retry_attempts,
        retry_succeeded;
    obs::Histogram task_duration, queue_wait;
  };
  /// One runtime series: its registry name, labels and help, and the
  /// RuntimeStats field it projects into. Defined with the table in
  /// runtime.cpp (stat_rows()), which init_metrics() and stats() share.
  struct StatRow;
  static std::span<const StatRow> stat_rows();

  /// One issued-but-incomplete task, for the watchdog's waits-for graph.
  /// Maintained only while the watchdog is enabled.
  struct LiveTask {
    std::string label;
    uint64_t launch = obs::Event::kNone;
    std::vector<uint64_t> deps;
  };

  /// Register `node` as external (remote-owned): mark it, add the remote
  /// guard to its pending count, and either adopt a buffered early outcome
  /// or index it for complete_external(). Must run before schedule() drops
  /// the issue guard.
  void register_external(const TaskNodePtr& node);
  /// Store `outcome` on `node` and release its remote guard.
  void deliver_external(const TaskNodePtr& node, RemoteOutcome outcome);

  RuntimeConfig config_;
  std::shared_ptr<RegionForest> forest_;
  DependenceTracker tracker_;
  VerdictCache verdict_cache_;
  // Observability members outlive the pool (declared first): workers
  // record events and counters until the pool's destructor joins them.
  obs::MetricsRegistry metrics_;
  StatsCells cells_;
  obs::EventLog event_log_;
  obs::EventLog* log_ = nullptr;  ///< == &event_log_ while recording is on
  std::unique_ptr<ThreadPool> pool_;
  // The watchdog thread reads members above; declared after the pool so it
  // is stopped/destroyed first (and explicitly stopped in ~Runtime).
  std::unique_ptr<obs::Watchdog> watchdog_;
  bool live_enabled_ = false;  ///< maintain the live-task table?
  mutable std::mutex live_mu_;
  std::unordered_map<uint64_t, LiveTask> live_;
  std::vector<std::pair<std::string, TaskFn>> task_registry_;
  std::vector<uint32_t> task_log_names_;  ///< interned span name per TaskFnId
  uint64_t next_seq_ = 0;
  uint64_t next_launch_id_ = 0;
  TaskFnId fill_task_ = UINT32_MAX;  ///< registered on the first fill

  // --- fault tolerance ---
  FaultLog faults_;
  /// Fault count at the last on-fault auto-dump (wait_all); dumps fire
  /// only when the count moves so repeated fences stay quiet.
  uint64_t last_fault_dump_count_ = 0;
  std::shared_ptr<const FaultPlan> fault_plan_;  ///< config or IDXL_FAULT_PLAN
  std::atomic<bool> cancel_all_{false};
  uint64_t trace_fault_epoch_ = 0;  ///< faults_.epoch() at begin_trace

  // --- external (remote-owned) tasks -------------------------------------
  mutable std::mutex ext_mu_;
  std::condition_variable ext_cv_;  ///< signalled as externals_ drains
  /// Issued external nodes awaiting their remote outcome, by seq.
  std::unordered_map<uint64_t, TaskNodePtr> externals_;
  /// Outcomes that arrived before their seq was issued (the driver forwards
  /// a worker's TaskDone to the other workers ahead of the launch frame
  /// racing down the same program, never this process — but a worker's own
  /// issue loop can trail the forwarded stream).
  std::unordered_map<uint64_t, RemoteOutcome> early_outcomes_;

  // --- prototype PhysicalRegion cache (bulk expansion) ---
  // One table per (parent, partition, field mask, privilege, redop), holding
  // a per-color prototype the chunk jobs copy instead of touching the forest
  // from worker threads. Slots are filled by the issuing thread only, before
  // the chunk jobs that read them are submitted; tables are sized once so
  // filled slots stay address-stable.
  struct ProtoKey {
    uint32_t parent = 0;
    uint32_t partition = 0;
    uint64_t mask = 0;
    Privilege priv = Privilege::kRead;
    ReductionOp redop = ReductionOp::kNone;
    bool operator==(const ProtoKey&) const = default;
  };
  struct ProtoKeyHash {
    std::size_t operator()(const ProtoKey& k) const {
      uint64_t h = k.mask;
      h = h * 1099511628211ull ^ k.parent;
      h = h * 1099511628211ull ^ k.partition;
      h = h * 1099511628211ull ^ static_cast<uint64_t>(k.priv);
      h = h * 1099511628211ull ^ static_cast<uint64_t>(k.redop);
      return static_cast<std::size_t>(h);
    }
  };
  using ProtoTable = std::vector<std::optional<PhysicalRegion>>;
  std::unordered_map<ProtoKey, std::shared_ptr<ProtoTable>, ProtoKeyHash> proto_cache_;

  // --- tracing state ---
  std::unordered_map<uint32_t, Trace> traces_;
  std::optional<uint32_t> trace_id_;  ///< the open trace scope, if any
  /// The trace being captured or replayed: null outside a scope, and for the
  /// rest of a scope whose replay diverged (it runs untraced).
  Trace* active_trace_ = nullptr;
  bool replaying_ = false;
  uint64_t trace_first_seq_ = 0;  ///< seq of the open scope's first task
  std::size_t replay_cursor_ = 0;  ///< next launch record to replay
  std::vector<TaskNodePtr> trace_nodes_;  ///< replayed nodes, by trace-local index
};

}  // namespace idxl
