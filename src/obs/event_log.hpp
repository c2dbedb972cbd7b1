#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/trace_context.hpp"

namespace idxl {

/// Where a span's time was spent — the pipeline stages the paper's
/// evaluation attributes time to (issuance, dependence analysis, safety
/// checks, execution), plus the subsystems layered on top of them.
enum class ProfCategory : uint8_t {
  kTask,        ///< a point task executing on a worker
  kIssue,       ///< execute()/execute_index() issuance, end to end
  kDependence,  ///< dependence discovery (tracker scan)
  kSafety,      ///< hybrid safety analysis (static + dynamic)
  kTrace,       ///< trace capture / replay bookkeeping
  kReduce,      ///< future reduction (Future::get)
  kExchange,    ///< cross-rank data movement (remote outcomes applied)
  kPhase,       ///< application-defined phase timer
  kRuntime,     ///< other runtime work (wait_all, ...)
};

const char* category_name(ProfCategory cat);

/// One span as the span views (Chrome trace, summary, telemetry) see it.
/// `tid` is the log lane (one per recording thread); `worker` is the
/// thread-pool worker id (-1 for issuance threads). Task spans carry the
/// task's sequence number, its launch id — shared with the lifecycle view,
/// so a span and the task's history cross-link by (launch, seq) — and the
/// time the task sat ready before a worker picked it up.
struct ProfileEvent {
  uint32_t name = 0;  ///< interned name id — see EventLog::name()
  ProfCategory cat = ProfCategory::kRuntime;
  int32_t worker = -1;
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t seq = kNoSeq;
  uint64_t queue_wait_ns = 0;
  uint64_t launch = kNoSeq;
  /// Causal parent on another rank: `parent` is the parent span's task
  /// sequence number and `origin` the rank whose trace holds it (control
  /// replication keeps seqs identical everywhere, so the pair is a global
  /// span id). kNoSeq/kNoRank on purely local spans.
  uint64_t parent = kNoSeq;
  uint32_t origin = kNoRank;

  static constexpr uint64_t kNoSeq = UINT64_MAX;
  static constexpr uint32_t kNoRank = UINT32_MAX;

  /// True when this span claims a parent span on another rank's trace.
  bool remote_parent() const { return origin != kNoRank && parent != kNoSeq; }
};

/// A task-graph node as the critical-path analyzer sees it: duration plus
/// the sequence numbers of its dependence-graph predecessors.
struct TaskSample {
  uint64_t seq = 0;
  uint64_t dur_ns = 0;
  std::vector<uint64_t> deps;
};

/// Longest weighted chain through the recorded task graph. With P workers
/// the program cannot finish faster than the critical path, so
/// `max_speedup()` bounds what any scheduler could achieve — the first
/// number to look at before blaming the runtime for poor scaling.
struct CriticalPathReport {
  uint64_t total_task_ns = 0;     ///< sum of all task durations
  uint64_t critical_path_ns = 0;  ///< longest dur-weighted dependence chain
  std::vector<uint64_t> path;     ///< seqs along that chain, program order
  double max_speedup() const {
    return critical_path_ns == 0
               ? 1.0
               : static_cast<double>(total_task_ns) /
                     static_cast<double>(critical_path_ns);
  }
};

/// Critical path over hand-supplied samples (exposed separately so tests
/// can validate the analysis on known graphs). Samples must be in issue
/// order: every dependence seq refers to an earlier sample.
CriticalPathReport critical_path(std::span<const TaskSample> samples);

namespace obs {

/// Tag the calling thread as thread-pool worker `worker`: lanes it
/// registers from then on carry that id. Set once by each pool worker.
void set_current_worker(int worker);

/// Task-lifecycle stages, in pipeline order, plus the structural events
/// (fences, trace boundaries, group fallbacks) that explain why dependence
/// state changed shape. The last two kinds are internal to the log and
/// never appear in the lifecycle view.
enum class LifecycleEvent : uint8_t {
  kIssued,         ///< the task (or launch) entered the runtime
  kAnalyzed,       ///< safety analysis verdict rendered (detail = verdict)
  kExpanded,       ///< an index launch finished expanding into point tasks
  kReady,          ///< every dependence satisfied (edge = last unblocker)
  kRunning,        ///< a worker started executing the task body
  kComplete,       ///< the task body returned
  kFence,          ///< wait_all() quiesced the pipeline
  kTraceBegin,     ///< begin_trace (capture or replay starts)
  kTraceEnd,       ///< end_trace
  kGroupFallback,  ///< a safe launch was forced onto the per-point path
  kStall,          ///< the watchdog declared a stall
  kFailed,         ///< the task body failed terminally (detail = fault cause)
  kPoisoned,       ///< skipped: an upstream failure poisoned this task
  kRetry,          ///< a failed attempt was re-enqueued (edge = attempt #)
  kCancelled,      ///< the task was cancelled (detail = timeout/cancel cause)
  kNetSend,        ///< a network frame was sent (seq = frame type, edge = bytes)
  kNetRecv,        ///< a network frame was received (same encoding as kNetSend)
  kSessionOpen,    ///< service: a client session was admitted (seq = session id)
  kSessionClose,   ///< service: a session ended cleanly (seq = session id)
  kAdmitted,       ///< service: a launch passed admission (seq = session id)
  kRejected,       ///< service: admission refused (seq = session id, edge = code)
  kEvicted,        ///< service: a session was forcibly torn down (seq = sid)
  kSpan,           ///< a span with no lifecycle meaning (capture mode only)
  kEdge,           ///< dependence edge seq <- edge, for the critical path
};

const char* lifecycle_event_name(LifecycleEvent e);

/// How kAnalyzed / kExpanded / fault events qualify themselves.
enum class LifecycleDetail : uint8_t {
  kNone = 0,
  kSafeStatic,        ///< SafetyOutcome::kSafeStatic
  kSafeDynamic,       ///< SafetyOutcome::kSafeDynamic
  kSafeUnchecked,     ///< SafetyOutcome::kSafeUnchecked
  kUnsafe,            ///< SafetyOutcome::kUnsafe (fell back to the task loop)
  kAssumedVerified,   ///< launcher.assume_verified skipped the analysis
  kReplay,            ///< expansion replayed a captured trace
  kException,         ///< kFailed: the body threw
  kExplicitFail,      ///< kFailed: TaskContext::fail()
  kInjected,          ///< kFailed: a FaultPlan injection fired
  kTimeout,           ///< kFailed/kCancelled: the launch timeout expired
  kCancel,            ///< kCancelled: watchdog action or cancel_all()
};

const char* lifecycle_detail_name(LifecycleDetail d);

/// One record of the event log: a lifecycle instant, a span (`name` set),
/// or both — a span whose lifecycle event the lifecycle view reports at
/// the span's end (kIssued: at its start; a task span, kind kComplete, as
/// kRunning at its start and kComplete at its end). Launch-level events
/// carry seq == kNone; task-level events name the task's sequence number,
/// its launch and its launch point. Timestamps are relative to the log's
/// construction (steady clock).
struct Event {
  static constexpr uint64_t kNone = UINT64_MAX;
  static constexpr uint32_t kNoName = UINT32_MAX;
  static constexpr uint32_t kNoRank = UINT32_MAX;
  static constexpr int kMaxPointDim = 4;

  uint64_t ts_ns = 0;       ///< the instant, or the span's start
  uint64_t dur_ns = 0;      ///< span length
  uint64_t seq = kNone;     ///< task id (TaskNode::seq)
  uint64_t launch = kNone;  ///< launch id
  /// A predecessor seq: the last unblocker (kReady), the dependence
  /// (kEdge), the poisoning root (kPoisoned), or a span's parent on rank
  /// `origin`. Some kinds carry a number here instead (see LifecycleEvent).
  uint64_t edge = kNone;
  uint64_t queue_wait_ns = 0;  ///< task span: ready -> running
  int64_t coord[kMaxPointDim] = {};
  uint32_t name = kNoName;  ///< interned span name; kNoName: not a span
  uint32_t origin = kNoRank;
  int32_t worker = -1;  ///< recording lane (-1: issuing thread); set by views
  LifecycleEvent kind = LifecycleEvent::kIssued;
  ProfCategory cat = ProfCategory::kRuntime;
  LifecycleDetail detail = LifecycleDetail::kNone;
  int8_t dim = 0;  ///< launch-point dimensionality; 0 = no point recorded

  bool is_span() const { return name != kNoName; }
  void set_point(const int64_t* c, int d) {
    dim = static_cast<int8_t>(d);
    for (int i = 0; i < d && i < kMaxPointDim; ++i) coord[i] = c[i];
  }
  /// "(1,2)" — empty when no point was recorded.
  std::string point_string() const;
};

/// kBounded keeps the last `capacity` records per lane and only lifecycle
/// records (the always-on black box); kCapture keeps every record, spans
/// and dependence edges included (profiling).
enum class LogMode : uint8_t { kOff, kBounded, kCapture };

/// One per-thread event stream with several views. Each recording thread
/// appends to a lane only it writes, under the lane's own mutex —
/// uncontended except while a reader copies it, so views are race-free
/// mid-run (what the watchdog needs) without a seqlock. Batch appends take
/// the mutex once per batch.
///
/// Views: the lifecycle events (snapshot/tail/json, recorded/overwritten)
/// in either mode, and — in capture mode only — the spans (events, Chrome
/// trace, summary) and the task graph (task_samples, critical path, DOT).
class EventLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 2048;

  /// Span names the instrumentation records against fixed ids,
  /// pre-interned so the hot path never touches the intern table.
  enum WellKnown : uint32_t {
    kNameIssue = 0,
    kNameDependence,
    kNameSafetyCheck,
    kNameSafetyStatic,
    kNameSafetyDynamic,
    kNameSafetyCache,
    kNameTraceCapture,
    kNameTraceReplay,
    kNameFutureReduce,
    kNameWaitAll,
    kNameGroupDependence,  ///< group-level (whole-partition) dependence pass
    kNameMaterialize,      ///< group state flushed into the per-point tracker
    kNameExpandChunk,      ///< one bulk-expansion chunk mapping point regions
    kWellKnownCount,
  };

  /// `capacity` bounds each lane in kBounded mode (at least 1).
  explicit EventLog(LogMode mode = LogMode::kCapture,
                    std::size_t capacity = kDefaultCapacity);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  bool enabled() const { return mode_ != LogMode::kOff; }
  bool capturing() const { return mode_ == LogMode::kCapture; }
  /// Records retained per lane (SIZE_MAX in capture mode).
  std::size_t capacity() const { return capacity_; }
  /// Whether a record of `kind` is kept: lifecycle kinds unless off, span
  /// and edge records in capture mode only.
  bool wants(LifecycleEvent kind) const {
    return mode_ == LogMode::kCapture ||
           (mode_ == LogMode::kBounded && kind < LifecycleEvent::kSpan);
  }

  /// Nanoseconds since construction (steady clock).
  uint64_t now_ns() const;
  /// The construction-time steady-clock origin (absolute ns).
  uint64_t epoch_ns() const { return epoch_ns_; }

  /// Intern `name`, returning a stable id. Thread-safe; takes a lock — call
  /// at setup time (task registration), not per event.
  uint32_t intern(std::string_view name);
  const std::string& name(uint32_t id) const;
  /// Snapshot of the intern table, indexed by name id.
  std::vector<std::string> names() const;

  /// Append one record to the calling thread's lane. A zero ts_ns is
  /// stamped with now_ns(). Dropped unless wants(e.kind).
  void record(Event e);
  /// Append pre-stamped records under one lock acquisition.
  void record_batch(std::span<const Event> events);
  /// Record task `seq`'s dependence-graph predecessors (capture mode only).
  /// Durations are joined later from the matching task spans.
  void record_edges(uint64_t seq, std::span<const uint64_t> deps);
  /// Record the receiving half of a cross-rank span pair: `name` from
  /// `start_ns` to now, parented on the span `ctx` names (capture mode).
  void record_remote_span(uint32_t name, uint64_t seq, const TraceContext& ctx,
                          uint64_t start_ns);

  // --- lifecycle view (both modes; safe mid-run) ---------------------------
  /// Every retained lifecycle event, oldest first (sorted by ts_ns).
  std::vector<Event> snapshot() const;
  /// The most recent `n` lifecycle events, oldest first.
  std::vector<Event> tail(std::size_t n) const;
  /// Lifecycle events recorded, and lost to ring wraparound, summed over
  /// all lanes. Both are monotone: reset() does not rewind them.
  uint64_t recorded() const;
  uint64_t overwritten() const;
  /// Events as a JSON array of objects (schema in docs/OBSERVABILITY.md).
  static std::string json(std::span<const Event> events);
  /// json(snapshot()).
  std::string json() const;

  // --- span views (capture mode; empty otherwise) ---------------------------
  /// Every span, sorted by (tid, start).
  std::vector<ProfileEvent> events() const;
  uint64_t event_count() const;
  /// The recorded task graph, joined and sorted by seq.
  std::vector<TaskSample> task_samples() const;
  CriticalPathReport critical_path() const;
  /// Graphviz DOT of the task graph: one node per task, labeled
  /// `name@point` from its kIssued record and its launch's issue span, in
  /// seq order, then every dependence edge, sorted. Render with
  /// `dot -Tsvg` for the paper's Figure-1-style picture of a program.
  /// Throws RuntimeError unless the log is capturing.
  std::string task_graph_dot() const;
  /// Chrome trace-event JSON ("X" complete events, microsecond timestamps)
  /// — load in about:tracing or https://ui.perfetto.dev.
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;
  /// Plain-text report: busy time per category, per-task-name count/total/
  /// p50/p95/max, and the critical-path bound.
  std::string summary() const;

  /// Drop every record (lanes stay registered).
  void reset();

  /// RAII span: one record covering [construction, close()). With kind
  /// kSpan it is a pure span, kept only in capture mode; a lifecycle kind
  /// makes it that event's record, kept in both modes. Inactive (one
  /// branch, no clock read) when `log` is null or does not want `kind`.
  class Scope {
   public:
    Scope(EventLog* log, ProfCategory cat, uint32_t name,
          LifecycleEvent kind = LifecycleEvent::kSpan, uint64_t seq = Event::kNone)
        : log_(log != nullptr && log->wants(kind) ? log : nullptr) {
      if (log_ == nullptr) return;
      ev_.kind = kind;
      ev_.cat = cat;
      ev_.name = name;
      ev_.seq = seq;
      ev_.ts_ns = log_->now_ns();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { close(); }

    /// The record being built: set the launch id or verdict before close.
    Event& event() { return ev_; }
    /// End the span now instead of at scope exit.
    void close() {
      if (log_ == nullptr) return;
      ev_.dur_ns = log_->now_ns() - ev_.ts_ns;
      log_->record(ev_);
      log_ = nullptr;
    }

   private:
    EventLog* log_;
    Event ev_;
  };

  /// Application phase timer: `auto s = log.phase("init");`. Interns the
  /// name — fine at phase granularity.
  Scope phase(std::string_view name) {
    return Scope(this, ProfCategory::kPhase, capturing() ? intern(name) : 0);
  }

 private:
  struct Lane;

  Lane& local_lane();
  /// One of the lanes' lifecycle counters, summed.
  uint64_t lane_total(uint64_t Lane::*counter) const;
  /// Visit every retained record, lane by lane, oldest first, holding the
  /// registration mutex and each lane's mutex in turn.
  template <class F>
  void visit(F&& f) const;

  const LogMode mode_;
  const std::size_t capacity_;
  const uint64_t id_;  ///< process-unique, keys the thread-local lane cache
  const uint64_t epoch_ns_;

  mutable std::mutex mu_;  // guards lanes_ registration and names_
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t> name_ids_;
};

/// Append `spans` to a Chrome trace-event array as "X" events of process
/// `pid` — after one thread_name record per lane — with every timestamp
/// shifted by `offset_ns`. `first` tracks the array's comma separator.
/// Shared by EventLog::chrome_trace_json and the merged cluster trace.
void append_chrome_spans(std::string& out, bool& first, std::span<const ProfileEvent> spans,
                         const std::vector<std::string>& names, uint32_t pid,
                         double offset_ns);

}  // namespace obs
}  // namespace idxl
