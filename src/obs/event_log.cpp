#include "obs/event_log.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <utility>

#include "obs/json.hpp"
#include "support/error.hpp"

namespace idxl {

const char* category_name(ProfCategory cat) {
  switch (cat) {
    case ProfCategory::kTask: return "task";
    case ProfCategory::kIssue: return "issue";
    case ProfCategory::kDependence: return "dependence";
    case ProfCategory::kSafety: return "safety";
    case ProfCategory::kTrace: return "trace";
    case ProfCategory::kReduce: return "reduce";
    case ProfCategory::kExchange: return "exchange";
    case ProfCategory::kPhase: return "phase";
    case ProfCategory::kRuntime: return "runtime";
  }
  return "unknown";
}

CriticalPathReport critical_path(std::span<const TaskSample> samples) {
  CriticalPathReport report;
  // longest[seq] = (chain length ending at seq, predecessor seq on chain)
  std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> longest;
  longest.reserve(samples.size());
  uint64_t best = 0, best_seq = ProfileEvent::kNoSeq;
  for (const TaskSample& s : samples) {
    uint64_t chain = 0, pred = ProfileEvent::kNoSeq;
    for (uint64_t dep : s.deps) {
      const auto it = longest.find(dep);
      if (it != longest.end() && it->second.first > chain) {
        chain = it->second.first;
        pred = dep;
      }
    }
    chain += s.dur_ns;
    longest[s.seq] = {chain, pred};
    report.total_task_ns += s.dur_ns;
    if (chain > best) {
      best = chain;
      best_seq = s.seq;
    }
  }
  report.critical_path_ns = best;
  for (uint64_t seq = best_seq; seq != ProfileEvent::kNoSeq;
       seq = longest.at(seq).second)
    report.path.push_back(seq);
  std::reverse(report.path.begin(), report.path.end());
  return report;
}

namespace obs {

namespace {

uint64_t steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<uint64_t> next_log_id{1};

thread_local int tls_worker_id = -1;

/// One-entry cache: the lane this thread last recorded into, keyed by the
/// owning log's process-unique id (ids are never reused, so a stale entry
/// can only miss — it can never alias a new log).
struct TlsCache {
  uint64_t log_id = 0;
  void* lane = nullptr;
};
thread_local TlsCache tls_cache;

/// Lifecycle events a record stands for: none for pure spans and edges,
/// two for a task span (running + complete), one otherwise.
uint64_t lifecycle_count(const Event& r) {
  if (r.kind >= LifecycleEvent::kSpan) return 0;
  return r.kind == LifecycleEvent::kComplete && r.is_span() ? 2 : 1;
}

/// Emit the lifecycle events `r` stands for, as instants, in order (see
/// Event for where a span's event falls).
template <class F>
void lifecycle_of(const Event& r, F&& emit) {
  if (r.kind >= LifecycleEvent::kSpan) return;
  if (!r.is_span()) return emit(r);
  Event e = r;
  e.name = Event::kNoName;
  e.dur_ns = 0;
  if (r.kind == LifecycleEvent::kComplete) {
    e.kind = LifecycleEvent::kRunning;
    emit(e);
    e.kind = LifecycleEvent::kComplete;
  }
  if (r.kind != LifecycleEvent::kIssued) e.ts_ns += r.dur_ns;
  emit(e);
}

double percentile(const std::vector<uint64_t>& sorted, double q) {
  IDXL_ASSERT(!sorted.empty());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]);
}

}  // namespace

void set_current_worker(int worker) { tls_worker_id = worker; }

const char* lifecycle_event_name(LifecycleEvent e) {
  switch (e) {
    case LifecycleEvent::kIssued: return "issued";
    case LifecycleEvent::kAnalyzed: return "analyzed";
    case LifecycleEvent::kExpanded: return "expanded";
    case LifecycleEvent::kReady: return "ready";
    case LifecycleEvent::kRunning: return "running";
    case LifecycleEvent::kComplete: return "complete";
    case LifecycleEvent::kFence: return "fence";
    case LifecycleEvent::kTraceBegin: return "trace-begin";
    case LifecycleEvent::kTraceEnd: return "trace-end";
    case LifecycleEvent::kStall: return "stall";
    case LifecycleEvent::kFailed: return "failed";
    case LifecycleEvent::kPoisoned: return "poisoned";
    case LifecycleEvent::kRetry: return "retry";
    case LifecycleEvent::kCancelled: return "cancelled";
    case LifecycleEvent::kNetSend: return "net-send";
    case LifecycleEvent::kNetRecv: return "net-recv";
    case LifecycleEvent::kSessionOpen: return "session-open";
    case LifecycleEvent::kSessionClose: return "session-close";
    case LifecycleEvent::kAdmitted: return "admitted";
    case LifecycleEvent::kRejected: return "rejected";
    case LifecycleEvent::kEvicted: return "evicted";
    case LifecycleEvent::kSpan: return "span";
    case LifecycleEvent::kEdge: return "edge";
  }
  return "unknown";
}

const char* lifecycle_detail_name(LifecycleDetail d) {
  switch (d) {
    case LifecycleDetail::kNone: return "none";
    case LifecycleDetail::kSafeStatic: return "safe-static";
    case LifecycleDetail::kSafeDynamic: return "safe-dynamic";
    case LifecycleDetail::kSafeUnchecked: return "safe-unchecked";
    case LifecycleDetail::kUnsafe: return "unsafe";
    case LifecycleDetail::kAssumedVerified: return "assumed-verified";
    case LifecycleDetail::kReplay: return "replay";
    case LifecycleDetail::kException: return "exception";
    case LifecycleDetail::kExplicitFail: return "explicit-fail";
    case LifecycleDetail::kInjected: return "injected";
    case LifecycleDetail::kTimeout: return "timeout";
    case LifecycleDetail::kCancel: return "cancel";
  }
  return "unknown";
}

std::string Event::point_string() const {
  if (dim <= 0) return {};
  std::string s = "(";
  for (int i = 0; i < dim && i < kMaxPointDim; ++i) {
    if (i != 0) s += ',';
    s += std::to_string(coord[i]);
  }
  s += ')';
  return s;
}

/// Per-thread record buffer: grows to the log's capacity as records
/// arrive, then overwrites its oldest record (capture mode never fills).
/// Records live in fixed-size blocks, so growing never copies or re-touches
/// what is already stored, and a reset keeps the blocks for reuse.
struct EventLog::Lane {
  static constexpr std::size_t kBlock = 256;  // records per block

  std::thread::id owner;
  uint32_t tid = 0;
  int32_t worker = -1;
  mutable std::mutex mu;
  std::vector<std::vector<Event>> blocks;
  std::size_t size = 0;      // records held
  uint64_t next = 0;         // appends since the last reset: the ring cursor
  uint64_t recorded = 0;     // lifecycle events ever appended
  uint64_t overwritten = 0;  // lifecycle events lost to wraparound

  Event& at(std::size_t i) { return blocks[i / kBlock][i % kBlock]; }
  const Event& at(std::size_t i) const { return blocks[i / kBlock][i % kBlock]; }

  void append(const Event& e, std::size_t capacity) {
    recorded += lifecycle_count(e);
    if (size < capacity) {
      if (size / kBlock == blocks.size()) blocks.emplace_back().reserve(kBlock);
      blocks[size / kBlock].push_back(e);
      ++size;
    } else {
      Event& slot = at(static_cast<std::size_t>(next % capacity));
      overwritten += lifecycle_count(slot);
      slot = e;
    }
    ++next;
  }
};

EventLog::EventLog(LogMode mode, std::size_t capacity)
    : mode_(mode),
      capacity_(mode == LogMode::kCapture ? SIZE_MAX : std::max<std::size_t>(capacity, 1)),
      id_(next_log_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_ns_(steady_now_ns()) {
  names_ = {"issue",         "dependence-analysis", "safety-check",
            "safety-check/static", "safety-check/dynamic", "safety-check/cache",
            "trace-capture", "trace-replay",        "future-reduce",
            "wait-all",      "expand-chunk"};
  IDXL_ASSERT(names_.size() == kWellKnownCount);
  for (uint32_t i = 0; i < names_.size(); ++i) name_ids_.emplace(names_[i], i);
}

EventLog::~EventLog() = default;

uint64_t EventLog::now_ns() const { return steady_now_ns() - epoch_ns_; }

uint32_t EventLog::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

const std::string& EventLog::name(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  IDXL_REQUIRE(id < names_.size(), "unknown span name id");
  return names_[id];
}

std::vector<std::string> EventLog::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

EventLog::Lane& EventLog::local_lane() {
  if (tls_cache.log_id == id_) return *static_cast<Lane*>(tls_cache.lane);
  // Slow path: first record from this thread (or the thread switched
  // logs) — find or register its lane under the lock.
  std::lock_guard<std::mutex> lock(mu_);
  const std::thread::id self = std::this_thread::get_id();
  Lane* lane = nullptr;
  for (const auto& l : lanes_)
    if (l->owner == self) lane = l.get();
  if (lane == nullptr) {
    lanes_.push_back(std::make_unique<Lane>());
    lane = lanes_.back().get();
    lane->owner = self;
    lane->tid = static_cast<uint32_t>(lanes_.size() - 1);
    lane->worker = tls_worker_id;
  }
  tls_cache = {id_, lane};
  return *lane;
}

void EventLog::record(Event e) {
  if (!wants(e.kind)) return;
  if (e.ts_ns == 0) e.ts_ns = now_ns();
  Lane& lane = local_lane();
  std::lock_guard<std::mutex> lock(lane.mu);
  lane.append(e, capacity_);
}

void EventLog::record_batch(std::span<const Event> events) {
  if (!enabled() || events.empty()) return;
  Lane& lane = local_lane();
  std::lock_guard<std::mutex> lock(lane.mu);
  for (const Event& e : events)
    if (wants(e.kind)) lane.append(e, capacity_);
}

void EventLog::record_edges(uint64_t seq, std::span<const uint64_t> deps) {
  if (!capturing()) return;
  // One record per edge; a root task gets one with no predecessor, so the
  // task graph lists every issued task.
  Event e;
  e.ts_ns = now_ns();
  e.kind = LifecycleEvent::kEdge;
  e.seq = seq;
  Lane& lane = local_lane();
  std::lock_guard<std::mutex> lock(lane.mu);
  if (deps.empty()) lane.append(e, capacity_);
  for (uint64_t dep : deps) {
    e.edge = dep;
    lane.append(e, capacity_);
  }
}

void EventLog::record_remote_span(uint32_t name, uint64_t seq, const TraceContext& ctx,
                                  uint64_t start_ns) {
  if (!capturing() || !ctx.valid()) return;
  Event e;
  e.ts_ns = start_ns;
  e.dur_ns = now_ns() - start_ns;
  e.kind = LifecycleEvent::kSpan;
  e.cat = ProfCategory::kExchange;
  e.name = name;
  e.seq = seq;
  e.launch = ctx.launch;
  e.edge = ctx.span;
  e.origin = ctx.origin;
  record(e);
}

template <class F>
void EventLog::visit(F&& f) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lane_lock(lane->mu);
    // Oldest first: once wrapped, the ring starts at the cursor.
    const std::size_t size = lane->size;
    const std::size_t cut =
        lane->next > size ? static_cast<std::size_t>(lane->next % size) : 0;
    for (std::size_t i = cut; i < size; ++i) f(*lane, lane->at(i));
    for (std::size_t i = 0; i < cut; ++i) f(*lane, lane->at(i));
  }
}

std::vector<Event> EventLog::snapshot() const {
  std::vector<Event> all;
  visit([&](const Lane& lane, const Event& r) {
    lifecycle_of(r, [&](Event e) {
      e.worker = lane.worker;
      all.push_back(e);
    });
  });
  std::stable_sort(all.begin(), all.end(),
                   [](const Event& a, const Event& b) { return a.ts_ns < b.ts_ns; });
  return all;
}

std::vector<Event> EventLog::tail(std::size_t n) const {
  std::vector<Event> all = snapshot();
  if (all.size() > n) all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(n));
  return all;
}

uint64_t EventLog::lane_total(uint64_t Lane::*counter) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lane_lock(lane->mu);
    n += (*lane).*counter;
  }
  return n;
}

uint64_t EventLog::recorded() const { return lane_total(&Lane::recorded); }

uint64_t EventLog::overwritten() const { return lane_total(&Lane::overwritten); }

std::string EventLog::json(std::span<const Event> events) {
  std::string out = "[";
  char buf[192];
  bool first = true;
  for (const Event& e : events) {
    std::snprintf(buf, sizeof(buf), "%s{\"ts_ns\":%" PRIu64 ",\"event\":",
                  first ? "" : ",", e.ts_ns);
    out += buf;
    out += json_quote(lifecycle_event_name(e.kind));
    std::snprintf(buf, sizeof(buf), ",\"worker\":%d", e.worker);
    out += buf;
    first = false;
    if (e.seq != Event::kNone) {
      std::snprintf(buf, sizeof(buf), ",\"seq\":%" PRIu64, e.seq);
      out += buf;
    }
    if (e.launch != Event::kNone) {
      std::snprintf(buf, sizeof(buf), ",\"launch\":%" PRIu64, e.launch);
      out += buf;
    }
    if (e.edge != Event::kNone) {
      std::snprintf(buf, sizeof(buf), ",\"edge\":%" PRIu64, e.edge);
      out += buf;
    }
    if (e.detail != LifecycleDetail::kNone) {
      out += ",\"detail\":";
      out += json_quote(lifecycle_detail_name(e.detail));
    }
    if (e.dim > 0) {
      out += ",\"point\":[";
      for (int i = 0; i < e.dim && i < Event::kMaxPointDim; ++i) {
        if (i != 0) out += ',';
        std::snprintf(buf, sizeof(buf), "%" PRId64, e.coord[i]);
        out += buf;
      }
      out += ']';
    }
    out += '}';
  }
  out += ']';
  return out;
}

std::string EventLog::json() const { return json(snapshot()); }

std::vector<ProfileEvent> EventLog::events() const {
  std::vector<ProfileEvent> all;
  if (!capturing()) return all;
  visit([&](const Lane& lane, const Event& r) {
    if (!r.is_span()) return;
    ProfileEvent ev;
    ev.name = r.name;
    ev.cat = r.cat;
    ev.worker = lane.worker;
    ev.tid = lane.tid;
    ev.start_ns = r.ts_ns;
    ev.dur_ns = r.dur_ns;
    ev.seq = r.seq;
    ev.queue_wait_ns = r.queue_wait_ns;
    ev.launch = r.launch;
    ev.parent = r.edge;
    ev.origin = r.origin;
    all.push_back(ev);
  });
  std::sort(all.begin(), all.end(), [](const ProfileEvent& a, const ProfileEvent& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.start_ns < b.start_ns;
  });
  return all;
}

uint64_t EventLog::event_count() const {
  uint64_t n = 0;
  if (capturing()) visit([&](const Lane&, const Event& r) { n += r.is_span() ? 1 : 0; });
  return n;
}

std::vector<TaskSample> EventLog::task_samples() const {
  std::vector<TaskSample> samples;
  if (!capturing()) return samples;
  std::unordered_map<uint64_t, std::size_t> index_of;
  const auto sample = [&](uint64_t seq) -> TaskSample& {
    const auto [it, inserted] = index_of.emplace(seq, samples.size());
    if (inserted) samples.push_back(TaskSample{seq, 0, {}});
    return samples[it->second];
  };
  // Join execution durations onto the issue-time edge records; tasks with
  // no edge record (none issued while capturing) become root samples.
  visit([&](const Lane&, const Event& r) {
    if (r.kind == LifecycleEvent::kEdge) {
      TaskSample& s = sample(r.seq);
      if (r.edge != Event::kNone) s.deps.push_back(r.edge);
    } else if (r.is_span() && r.cat == ProfCategory::kTask && r.seq != Event::kNone) {
      sample(r.seq).dur_ns += r.dur_ns;
    }
  });
  std::sort(samples.begin(), samples.end(),
            [](const TaskSample& a, const TaskSample& b) { return a.seq < b.seq; });
  return samples;
}

CriticalPathReport EventLog::critical_path() const {
  const std::vector<TaskSample> samples = task_samples();
  return idxl::critical_path(samples);
}

std::string EventLog::task_graph_dot() const {
  IDXL_REQUIRE(capturing(),
               "the task graph is a capture-mode view: enable RuntimeConfig::enable_profiling");
  // A task's kIssued record names its launch and point; the launch's issue
  // span (the one stamped with its launch id) names its task.
  std::unordered_map<uint64_t, uint32_t> launch_name;
  std::unordered_map<uint64_t, std::pair<uint64_t, std::string>> issued;  // seq -> launch, point
  visit([&](const Lane&, const Event& r) {
    if (r.is_span() && r.cat == ProfCategory::kIssue && r.launch != Event::kNone)
      launch_name[r.launch] = r.name;
    else if (r.kind == LifecycleEvent::kIssued && !r.is_span() && r.seq != Event::kNone)
      issued[r.seq] = {r.launch, r.point_string()};
  });
  const std::vector<std::string> table = names();
  const std::vector<TaskSample> samples = task_samples();
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (const TaskSample& s : samples)
    for (uint64_t dep : s.deps) edges.emplace_back(dep, s.seq);
  std::sort(edges.begin(), edges.end());

  std::string dot = "digraph tasks {\n  rankdir=TB;\n  node [shape=box];\n";
  dot.reserve(dot.size() + samples.size() * 48 + edges.size() * 32);
  for (const TaskSample& s : samples) {
    dot += "  t" + std::to_string(s.seq) + " [label=\"";
    if (const auto it = issued.find(s.seq); it != issued.end()) {
      if (const auto name = launch_name.find(it->second.first); name != launch_name.end())
        dot += table[name->second];
      dot += '@';
      dot += it->second.second;
    }
    dot += "\"];\n";
  }
  for (const auto& [from, to] : edges)
    dot += "  t" + std::to_string(from) + " -> t" + std::to_string(to) + ";\n";
  dot += "}\n";
  return dot;
}

void append_chrome_spans(std::string& out, bool& first, std::span<const ProfileEvent> spans,
                         const std::vector<std::string>& names, uint32_t pid,
                         double offset_ns) {
  char buf[192];
  const auto sep = [&] { return std::exchange(first, false) ? "" : ","; };
  // Thread-name metadata so Perfetto labels lanes by worker.
  std::vector<int32_t> lane_worker;
  for (const ProfileEvent& ev : spans) {
    if (lane_worker.size() <= ev.tid) lane_worker.resize(ev.tid + 1, -1);
    lane_worker[ev.tid] = ev.worker;
  }
  for (uint32_t tid = 0; tid < lane_worker.size(); ++tid) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"M\",\"pid\":%u,\"tid\":%u,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"%s\"}}",
                  sep(), pid, tid,
                  lane_worker[tid] < 0
                      ? "issuer"
                      : ("worker " + std::to_string(lane_worker[tid])).c_str());
    out += buf;
  }
  for (const ProfileEvent& ev : spans) {
    out += sep();
    out += "{\"name\":\"";
    json_escape(out, ev.name < names.size() ? names[ev.name] : "?");
    std::snprintf(buf, sizeof(buf),
                  "\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%u,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"worker\":%d",
                  category_name(ev.cat), pid, ev.tid,
                  (offset_ns + static_cast<double>(ev.start_ns)) / 1e3,
                  static_cast<double>(ev.dur_ns) / 1e3, ev.worker);
    out += buf;
    if (ev.seq != ProfileEvent::kNoSeq) {
      std::snprintf(buf, sizeof(buf), ",\"seq\":%" PRIu64 ",\"queue_wait_us\":%.3f",
                    ev.seq, static_cast<double>(ev.queue_wait_ns) / 1e3);
      out += buf;
    }
    if (ev.launch != ProfileEvent::kNoSeq) {
      std::snprintf(buf, sizeof(buf), ",\"launch\":%" PRIu64, ev.launch);
      out += buf;
    }
    if (ev.remote_parent()) {
      std::snprintf(buf, sizeof(buf), ",\"parent\":%" PRIu64 ",\"origin\":%u",
                    ev.parent, ev.origin);
      out += buf;
    }
    out += "}}";
  }
}

std::string EventLog::chrome_trace_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  append_chrome_spans(out, first, events(), names(), 0, 0.0);
  out += "]}";
  return out;
}

void EventLog::write_chrome_trace(const std::string& path) const {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  IDXL_REQUIRE(f != nullptr, ("cannot open trace file " + path).c_str());
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

std::string EventLog::summary() const {
  const std::vector<ProfileEvent> all = events();
  const std::vector<std::string> table = names();

  uint64_t cat_total[16] = {};
  uint64_t cat_count[16] = {};
  std::unordered_map<uint32_t, std::vector<uint64_t>> task_durs;
  std::unordered_map<uint32_t, std::vector<uint64_t>> task_waits;
  for (const ProfileEvent& ev : all) {
    cat_total[static_cast<std::size_t>(ev.cat)] += ev.dur_ns;
    cat_count[static_cast<std::size_t>(ev.cat)] += 1;
    if (ev.cat == ProfCategory::kTask) {
      task_durs[ev.name].push_back(ev.dur_ns);
      task_waits[ev.name].push_back(ev.queue_wait_ns);
    }
  }

  std::string out = "== idxl profile summary ==\n";
  char line[256];
  out += "-- busy time by category --\n";
  std::snprintf(line, sizeof(line), "%-14s%10s%14s\n", "category", "events", "busy ms");
  out += line;
  for (std::size_t c = 0; c < 16; ++c) {
    if (cat_count[c] == 0) continue;
    std::snprintf(line, sizeof(line), "%-14s%10" PRIu64 "%14.3f\n",
                  category_name(static_cast<ProfCategory>(c)), cat_count[c],
                  static_cast<double>(cat_total[c]) / 1e6);
    out += line;
  }

  if (!task_durs.empty()) {
    out += "-- task latencies (us) --\n";
    std::snprintf(line, sizeof(line), "%-20s%8s%12s%10s%10s%10s%12s\n", "task",
                  "count", "total ms", "p50", "p95", "max", "wait p95");
    out += line;
    std::vector<uint32_t> ids;
    ids.reserve(task_durs.size());
    for (const auto& [id, durs] : task_durs) ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (uint32_t id : ids) {
      std::vector<uint64_t>& durs = task_durs[id];
      std::vector<uint64_t>& waits = task_waits[id];
      std::sort(durs.begin(), durs.end());
      std::sort(waits.begin(), waits.end());
      uint64_t total = 0;
      for (uint64_t d : durs) total += d;
      std::snprintf(line, sizeof(line),
                    "%-20s%8zu%12.3f%10.2f%10.2f%10.2f%12.2f\n",
                    (id < table.size() ? table[id] : "?").c_str(), durs.size(),
                    static_cast<double>(total) / 1e6, percentile(durs, 0.50) / 1e3,
                    percentile(durs, 0.95) / 1e3,
                    static_cast<double>(durs.back()) / 1e3,
                    percentile(waits, 0.95) / 1e3);
      out += line;
    }
  }

  const CriticalPathReport cp = critical_path();
  if (cp.total_task_ns > 0) {
    std::snprintf(line, sizeof(line),
                  "-- critical path --\ntotal task time %.3f ms, critical path "
                  "%.3f ms over %zu tasks -> max achievable speedup %.2fx\n",
                  static_cast<double>(cp.total_task_ns) / 1e6,
                  static_cast<double>(cp.critical_path_ns) / 1e6, cp.path.size(),
                  cp.max_speedup());
    out += line;
  }
  return out;
}

void EventLog::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lane_lock(lane->mu);
    for (std::vector<Event>& block : lane->blocks) block.clear();
    lane->size = 0;
    lane->next = 0;
  }
}

}  // namespace obs
}  // namespace idxl
