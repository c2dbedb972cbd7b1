#include "obs/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "obs/json.hpp"

namespace idxl {

namespace {

uint64_t steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<uint64_t> next_profiler_id{1};

thread_local int tls_worker_id = -1;

/// One-entry cache: the buffer this thread last recorded into, keyed by the
/// owning profiler's process-unique id (ids are never reused, so a stale
/// entry can only miss — it can never alias a new profiler).
struct TlsCache {
  uint64_t profiler_id = 0;
  void* buffer = nullptr;
};
thread_local TlsCache tls_cache;

double percentile(const std::vector<uint64_t>& sorted, double q) {
  IDXL_ASSERT(!sorted.empty());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]);
}

}  // namespace

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

void prof_set_current_worker(int worker) { tls_worker_id = worker; }
int prof_current_worker() { return tls_worker_id; }

/// Per-thread event sink. Only the owning thread appends; readers merge
/// buffers at quiescent points, so the append path takes no lock.
struct Profiler::Buffer {
  std::thread::id owner;
  uint32_t tid = 0;
  int32_t worker = -1;
  std::vector<ProfileEvent> events;
  std::vector<TaskSample> edges;  // dur filled by join in task_samples()
};

Profiler::Profiler(bool enabled)
    : enabled_(enabled),
      id_(next_profiler_id.fetch_add(1, std::memory_order_relaxed)),
      epoch_ns_(steady_now_ns()) {
  names_ = {"issue",         "dependence-analysis", "safety-check",
            "safety-check/static", "safety-check/dynamic", "safety-check/cache",
            "trace-capture", "trace-replay",        "future-reduce",
            "wait-all",      "dependence-group",    "dependence-materialize",
            "expand-chunk"};
  IDXL_ASSERT(names_.size() == kWellKnownCount);
  for (uint32_t i = 0; i < names_.size(); ++i) name_ids_.emplace(names_[i], i);
}

Profiler::~Profiler() = default;

uint64_t Profiler::now_ns() const { return steady_now_ns() - epoch_ns_; }

uint32_t Profiler::intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  const auto id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

const std::string& Profiler::name(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  IDXL_REQUIRE(id < names_.size(), "unknown profile name id");
  return names_[id];
}

std::vector<std::string> Profiler::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

Profiler::Buffer& Profiler::local_buffer() {
  if (tls_cache.profiler_id == id_)
    return *static_cast<Buffer*>(tls_cache.buffer);
  // Slow path: first record from this thread (or the thread switched
  // profilers) — find or register its buffer under the lock.
  std::lock_guard<std::mutex> lock(mu_);
  const std::thread::id self = std::this_thread::get_id();
  Buffer* buf = nullptr;
  for (const auto& b : buffers_)
    if (b->owner == self) buf = b.get();
  if (buf == nullptr) {
    buffers_.push_back(std::make_unique<Buffer>());
    buf = buffers_.back().get();
    buf->owner = self;
    buf->tid = static_cast<uint32_t>(buffers_.size() - 1);
    buf->worker = tls_worker_id;
  }
  tls_cache = {id_, buf};
  return *buf;
}

void Profiler::record(ProfCategory cat, uint32_t name, uint64_t start_ns,
                      uint64_t end_ns, uint64_t seq, uint64_t queue_wait_ns,
                      uint64_t launch) {
  if (!enabled_) return;
  Buffer& buf = local_buffer();
  ProfileEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.worker = buf.worker;
  ev.tid = buf.tid;
  ev.start_ns = start_ns;
  ev.dur_ns = end_ns - start_ns;
  ev.seq = seq;
  ev.queue_wait_ns = queue_wait_ns;
  ev.launch = launch;
  buf.events.push_back(ev);
}

void Profiler::record(const ProfileEvent& event) {
  if (!enabled_) return;
  Buffer& buf = local_buffer();
  ProfileEvent ev = event;
  ev.worker = buf.worker;
  ev.tid = buf.tid;
  buf.events.push_back(ev);
}

void Profiler::record_edges(uint64_t seq, std::span<const uint64_t> deps) {
  if (!enabled_) return;
  Buffer& buf = local_buffer();
  TaskSample s;
  s.seq = seq;
  s.deps.assign(deps.begin(), deps.end());
  buf.edges.push_back(std::move(s));
}

std::vector<ProfileEvent> Profiler::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ProfileEvent> all;
  for (const auto& b : buffers_)
    all.insert(all.end(), b->events.begin(), b->events.end());
  std::sort(all.begin(), all.end(), [](const ProfileEvent& a, const ProfileEvent& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.start_ns < b.start_ns;
  });
  return all;
}

uint64_t Profiler::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->events.size();
  return n;
}

std::vector<TaskSample> Profiler::task_samples() const {
  std::vector<TaskSample> samples;
  std::unordered_map<uint64_t, std::size_t> index_of;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      for (const TaskSample& e : b->edges) {
        index_of.emplace(e.seq, samples.size());
        samples.push_back(e);
      }
    }
    // Join execution durations onto the issue-time edge records; tasks with
    // no edge record (none issued while profiling) become root samples.
    for (const auto& b : buffers_) {
      for (const ProfileEvent& ev : b->events) {
        if (ev.cat != ProfCategory::kTask || ev.seq == ProfileEvent::kNoSeq)
          continue;
        auto [it, inserted] = index_of.emplace(ev.seq, samples.size());
        if (inserted) samples.push_back(TaskSample{ev.seq, 0, {}});
        samples[it->second].dur_ns += ev.dur_ns;
      }
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const TaskSample& a, const TaskSample& b) { return a.seq < b.seq; });
  return samples;
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

CriticalPathReport Profiler::critical_path() const {
  const std::vector<TaskSample> samples = task_samples();
  return idxl::critical_path(samples);
}

std::string Profiler::chrome_trace_json() const {
  const std::vector<ProfileEvent> all = events();
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names = names_;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  // Thread-name metadata so Perfetto labels lanes by worker.
  uint32_t max_tid = 0;
  std::vector<int32_t> lane_worker;
  for (const ProfileEvent& ev : all) {
    max_tid = std::max(max_tid, ev.tid);
    if (lane_worker.size() <= ev.tid) lane_worker.resize(ev.tid + 1, -1);
    lane_worker[ev.tid] = ev.worker;
  }
  bool first = true;
  for (uint32_t tid = 0; tid < lane_worker.size(); ++tid) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"M\",\"pid\":0,\"tid\":%u,\"name\":\"thread_name\","
                  "\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",", tid,
                  lane_worker[tid] < 0
                      ? "issuer"
                      : ("worker " + std::to_string(lane_worker[tid])).c_str());
    out += buf;
    first = false;
  }
  for (const ProfileEvent& ev : all) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"", first ? "" : ",");
    out += buf;
    first = false;
    obs::json_escape(out, ev.name < names.size() ? names[ev.name] : "?");
    std::snprintf(buf, sizeof(buf),
                  "\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"worker\":%d",
                  category_name(ev.cat), ev.tid,
                  static_cast<double>(ev.start_ns) / 1e3,
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
  out += "]}";
  return out;
}

void Profiler::write_chrome_trace(const std::string& path) const {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  IDXL_REQUIRE(f != nullptr, ("cannot open trace file " + path).c_str());
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

std::string Profiler::summary() const {
  const std::vector<ProfileEvent> all = events();
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names = names_;
  }

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
                    (id < names.size() ? names[id] : "?").c_str(), durs.size(),
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

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    b->events.clear();
    b->edges.clear();
  }
}

}  // namespace idxl
