#include "dist/protocol.hpp"

#include <chrono>

#include "support/error.hpp"

namespace idxl::dist {

uint64_t steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* msg_name(uint8_t type) {
  switch (static_cast<Msg>(type)) {
    case Msg::kHello: return "hello";
    case Msg::kHelloAck: return "hello-ack";
    case Msg::kSetup: return "setup";
    case Msg::kLaunch: return "launch";
    case Msg::kSingle: return "single";
    case Msg::kTaskDone: return "task-done";
    case Msg::kFence: return "fence";
    case Msg::kFenceAck: return "fence-ack";
    case Msg::kShutdown: return "shutdown";
    case Msg::kBye: return "bye";
    case Msg::kPing: return "ping";
    case Msg::kRecall: return "recall";
    case Msg::kRegionData: return "region-data";
    case Msg::kTelemetryReq: return "telemetry-req";
    case Msg::kTelemetry: return "telemetry";
  }
  return "unknown";
}

std::vector<std::byte> encode_hello(const Hello& h) {
  Serializer s;
  s.put_header();
  s.put_u32(h.rank);
  s.put_u32(h.nranks);
  s.put_u32(h.workers);
  s.put_u32(h.heartbeat_period_ms);
  s.put_u32(h.peer_stall_window_ms);
  s.put_u8(h.delta_transfers);
  s.put_u8(h.enable_profiling);
  s.put_string(h.fault_plan);
  return s.take();
}

Hello decode_hello(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("hello message");
  Hello h;
  h.rank = d.get_u32();
  h.nranks = d.get_u32();
  h.workers = d.get_u32();
  h.heartbeat_period_ms = d.get_u32();
  h.peer_stall_window_ms = d.get_u32();
  h.delta_transfers = d.get_u8();
  h.enable_profiling = d.get_u8();
  h.fault_plan = d.get_string();
  return h;
}

namespace {

void put_rect(Serializer& s, const Rect& r) {
  s.put_point(r.lo);
  s.put_point(r.hi);
}

Rect get_rect(Deserializer& d) {
  const Point lo = d.get_point();
  const Point hi = d.get_point();
  return Rect(lo, hi);
}

void put_trace_ctx(Serializer& s, const obs::TraceContext& ctx) {
  s.put_u64(ctx.launch);
  s.put_u64(ctx.span);
  s.put_u32(ctx.origin);
}

obs::TraceContext get_trace_ctx(Deserializer& d) {
  obs::TraceContext ctx;
  ctx.launch = d.get_u64();
  ctx.span = d.get_u64();
  ctx.origin = d.get_u32();
  return ctx;
}

}  // namespace

std::vector<std::byte> encode_setup(const Setup& su) {
  Serializer s;
  s.put_header();
  s.put_u32(static_cast<uint32_t>(su.journal.size()));
  for (const SetupOp& op : su.journal) {
    s.put_u8(static_cast<uint8_t>(op.kind));
    serialize_domain(s, op.domain);
    s.put_u32(op.a);
    s.put_u32(op.b);
    s.put_string(op.name);
    put_rect(s, op.color_space);
    s.put_u32(static_cast<uint32_t>(op.subspaces.size()));
    for (const Domain& sub : op.subspaces) serialize_domain(s, sub);
    s.put_u8(op.disjointness);
    s.put_point(op.color);
  }
  s.put_u32(static_cast<uint32_t>(su.tasks.size()));
  for (const std::string& t : su.tasks) s.put_string(t);
  s.put_u32(static_cast<uint32_t>(su.storage.size()));
  for (const Setup::Storage& st : su.storage) {
    s.put_u32(st.region);
    s.put_u32(st.field);
    s.put_blob(st.bytes);
  }
  return s.take();
}

Setup decode_setup(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("setup message");
  Setup su;
  const uint32_t nops = d.get_u32();
  su.journal.reserve(nops);
  for (uint32_t i = 0; i < nops; ++i) {
    SetupOp op;
    op.kind = static_cast<SetupOp::Kind>(d.get_u8());
    op.domain = deserialize_domain(d);
    op.a = d.get_u32();
    op.b = d.get_u32();
    op.name = d.get_string();
    op.color_space = get_rect(d);
    const uint32_t nsub = d.get_u32();
    op.subspaces.reserve(nsub);
    for (uint32_t j = 0; j < nsub; ++j)
      op.subspaces.push_back(deserialize_domain(d));
    op.disjointness = d.get_u8();
    op.color = d.get_point();
    su.journal.push_back(std::move(op));
  }
  const uint32_t ntasks = d.get_u32();
  su.tasks.reserve(ntasks);
  for (uint32_t i = 0; i < ntasks; ++i) su.tasks.push_back(d.get_string());
  const uint32_t nstore = d.get_u32();
  su.storage.reserve(nstore);
  for (uint32_t i = 0; i < nstore; ++i) {
    Setup::Storage st;
    st.region = d.get_u32();
    st.field = d.get_u32();
    st.bytes = d.get_blob();
    su.storage.push_back(std::move(st));
  }
  IDXL_REQUIRE(d.done(), "trailing bytes after setup message");
  return su;
}

RemoteOutcome TaskDone::outcome(uint32_t index, std::size_t* fault) {
  RemoteOutcome o;
  if (!rets.empty()) o.ret = rets[index];
  o.has_data = has_data;
  if (has_data) o.region_bytes = std::move(region_bytes);
  if (*fault < faults.size() && faults[*fault].index == index) {
    Fault& f = faults[(*fault)++];
    o.kind = f.kind;
    o.root = f.root;
    o.attempts = f.attempts;
    o.message = std::move(f.message);
  }
  return o;
}

std::vector<std::byte> encode_task_done(const TaskDone& t) {
  IDXL_ASSERT(t.count == 1 || !t.has_data);
  Serializer s;
  s.put_header();
  s.put_u64(t.first);
  s.put_u32(t.count);
  s.put_u32(t.data_dest);
  put_trace_ctx(s, t.ctx);
  s.put_u32(static_cast<uint32_t>(t.faults.size()));
  for (const TaskDone::Fault& f : t.faults) {
    s.put_u32(f.index);
    s.put_u8(static_cast<uint8_t>(f.kind));
    s.put_u64(f.root);
    s.put_u32(f.attempts);
    s.put_string(f.message);
  }
  s.put_u32(static_cast<uint32_t>(t.rets.size()));
  for (const double r : t.rets) s.put_f64(r);
  s.put_u8(t.has_data ? 1 : 0);
  if (t.has_data) s.put_blob(t.region_bytes);
  return s.take();
}

TaskDone decode_task_done(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("task-done message");
  TaskDone t;
  t.first = d.get_u64();
  t.count = d.get_u32();
  t.data_dest = d.get_u32();
  t.ctx = get_trace_ctx(d);
  for (uint32_t n = d.get_u32(); n > 0; --n) {
    TaskDone::Fault f;
    f.index = d.get_u32();
    f.kind = static_cast<FaultKind>(d.get_u8());
    f.root = d.get_u64();
    f.attempts = d.get_u32();
    f.message = d.get_string();
    IDXL_REQUIRE(f.index < t.count && (t.faults.empty() || t.faults.back().index < f.index),
                 "task-done fault out of order or outside its slice");
    t.faults.push_back(std::move(f));
  }
  const uint32_t nrets = d.get_u32();
  IDXL_REQUIRE(nrets == 0 || nrets == t.count, "task-done return values do not match its slice");
  t.rets.reserve(nrets);
  for (uint32_t i = 0; i < nrets; ++i) t.rets.push_back(d.get_f64());
  t.has_data = d.get_u8() != 0;
  if (t.has_data) {
    IDXL_REQUIRE(t.count == 1, "task-done region bytes on a slice of more than one task");
    t.region_bytes = d.get_blob();
  }
  IDXL_REQUIRE(d.done(), "trailing bytes after task-done message");
  return t;
}

std::vector<std::byte> encode_region_data(const RegionData& r) {
  Serializer s;
  s.put_header();
  s.put_u64(r.seq);
  s.put_u32(r.dest);
  s.put_u64(r.sent_ns);
  put_trace_ctx(s, r.ctx);
  s.put_u32(static_cast<uint32_t>(r.patches.size()));
  for (const RegionPatch& p : r.patches) {
    s.put_u32(p.arg);
    s.put_u32(p.field);
    put_rect(s, p.rect);
    s.put_blob(p.bytes);
  }
  return s.take();
}

RegionData decode_region_data(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("region-data message");
  RegionData r;
  r.seq = d.get_u64();
  r.dest = d.get_u32();
  r.sent_ns = d.get_u64();
  r.ctx = get_trace_ctx(d);
  const uint32_t n = d.get_u32();
  r.patches.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RegionPatch p;
    p.arg = d.get_u32();
    p.field = d.get_u32();
    p.rect = get_rect(d);
    p.bytes = d.get_blob();
    r.patches.push_back(std::move(p));
  }
  IDXL_REQUIRE(d.done(), "trailing bytes after region-data message");
  return r;
}

std::vector<std::byte> encode_fence(const Fence& f) {
  Serializer s;
  s.put_header();
  s.put_u64(f.id);
  s.put_u8(f.metrics ? 1 : 0);
  return s.take();
}

Fence decode_fence(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("fence message");
  Fence f;
  f.id = d.get_u64();
  f.metrics = d.get_u8() != 0;
  IDXL_REQUIRE(d.done(), "trailing bytes after fence message");
  return f;
}

std::vector<std::byte> encode_fence_ack(const FenceAck& a) {
  Serializer s;
  s.put_header();
  s.put_u64(a.fence);
  s.put_blob(serialize_fault_report(a.report));
  s.put_blob(a.metrics);
  return s.take();
}

FenceAck decode_fence_ack(const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("fence-ack message");
  FenceAck a;
  a.fence = d.get_u64();
  a.report = deserialize_fault_report(d.get_blob());
  a.metrics = d.get_blob();
  IDXL_REQUIRE(d.done(), "trailing bytes after fence-ack message");
  return a;
}

std::vector<std::byte> serialize_metrics_snapshot(const obs::MetricsSnapshot& m) {
  Serializer s;
  s.put_u64(m.taken_ns);
  s.put_u32(static_cast<uint32_t>(m.families.size()));
  for (const obs::FamilySnapshot& f : m.families) {
    s.put_string(f.name);
    s.put_string(f.help);
    s.put_u8(static_cast<uint8_t>(f.kind));
    s.put_u32(static_cast<uint32_t>(f.series.size()));
    for (const obs::SeriesSnapshot& series : f.series) {
      s.put_u32(static_cast<uint32_t>(series.labels.size()));
      for (const auto& [k, v] : series.labels) {
        s.put_string(k);
        s.put_string(v);
      }
      s.put_u64(series.counter);
      s.put_i64(series.gauge);
      s.put_u64(series.count);
      s.put_u64(series.sum);
      s.put_u32(static_cast<uint32_t>(series.buckets.size()));
      for (const auto& [le, cumulative] : series.buckets) {
        s.put_u64(le);
        s.put_u64(cumulative);
      }
    }
  }
  return s.take();
}

obs::MetricsSnapshot deserialize_metrics_snapshot(
    const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  obs::MetricsSnapshot m;
  m.taken_ns = d.get_u64();
  const uint32_t nfamilies = d.get_u32();
  m.families.reserve(nfamilies);
  for (uint32_t i = 0; i < nfamilies; ++i) {
    obs::FamilySnapshot f;
    f.name = d.get_string();
    f.help = d.get_string();
    f.kind = static_cast<obs::MetricKind>(d.get_u8());
    const uint32_t nseries = d.get_u32();
    f.series.reserve(nseries);
    for (uint32_t j = 0; j < nseries; ++j) {
      obs::SeriesSnapshot series;
      const uint32_t nlabels = d.get_u32();
      series.labels.reserve(nlabels);
      for (uint32_t k = 0; k < nlabels; ++k) {
        std::string key = d.get_string();
        series.labels.emplace_back(std::move(key), d.get_string());
      }
      series.counter = d.get_u64();
      series.gauge = d.get_i64();
      series.count = d.get_u64();
      series.sum = d.get_u64();
      const uint32_t nbuckets = d.get_u32();
      series.buckets.reserve(nbuckets);
      for (uint32_t b = 0; b < nbuckets; ++b) {
        const uint64_t le = d.get_u64();
        series.buckets.emplace_back(le, d.get_u64());
      }
      f.series.push_back(std::move(series));
    }
    m.families.push_back(std::move(f));
  }
  IDXL_REQUIRE(d.done(), "trailing bytes after metrics snapshot");
  return m;
}

namespace {

/// The flavor byte that opens a kTelemetry payload.
enum class TelemetryFlavor : uint8_t {
  kShutdownPull = 0,  ///< an obs::RankTrace, answering kTelemetryReq
  kStallPush = 1,     ///< an obs::RankStall, pushed by the rank's watchdog
};

/// A u32 count, then each item.
template <class T, class Put>
void put_list(Serializer& s, const std::vector<T>& items, Put&& put) {
  s.put_u32(static_cast<uint32_t>(items.size()));
  for (const T& item : items) put(item);
}

/// The inverse of put_list. The list grows as items decode, so a corrupt
/// count fails on the truncated input instead of allocating up front.
template <class T, class Get>
std::vector<T> get_list(Deserializer& d, Get&& get) {
  std::vector<T> items;
  for (uint32_t n = d.get_u32(); n > 0; --n) items.push_back(get());
  return items;
}

void put_seqs(Serializer& s, const std::vector<uint64_t>& seqs) {
  put_list(s, seqs, [&](uint64_t seq) { s.put_u64(seq); });
}

std::vector<uint64_t> get_seqs(Deserializer& d) {
  return get_list<uint64_t>(d, [&] { return d.get_u64(); });
}

void put_events(Serializer& s, const std::vector<obs::Event>& events) {
  put_list(s, events, [&](const obs::Event& ev) {
    s.put_u64(ev.ts_ns);
    s.put_u64(ev.seq);
    s.put_u64(ev.launch);
    s.put_u64(ev.edge);
    for (int i = 0; i < obs::Event::kMaxPointDim; ++i) s.put_i64(ev.coord[i]);
    s.put_u8(static_cast<uint8_t>(ev.kind));
    s.put_u8(static_cast<uint8_t>(ev.detail));
    s.put_u8(static_cast<uint8_t>(ev.dim));
    s.put_i64(ev.worker);
  });
}

std::vector<obs::Event> get_events(Deserializer& d) {
  return get_list<obs::Event>(d, [&] {
    obs::Event ev;
    ev.ts_ns = d.get_u64();
    ev.seq = d.get_u64();
    ev.launch = d.get_u64();
    ev.edge = d.get_u64();
    for (int i = 0; i < obs::Event::kMaxPointDim; ++i) ev.coord[i] = d.get_i64();
    ev.kind = static_cast<obs::LifecycleEvent>(d.get_u8());
    ev.detail = static_cast<obs::LifecycleDetail>(d.get_u8());
    ev.dim = static_cast<int8_t>(d.get_u8());
    ev.worker = static_cast<int32_t>(d.get_i64());
    return ev;
  });
}

}  // namespace

std::vector<std::byte> encode_telemetry(const obs::RankTrace& t) {
  Serializer s;
  s.put_header();
  s.put_u8(static_cast<uint8_t>(TelemetryFlavor::kShutdownPull));
  s.put_u32(t.rank);
  s.put_u64(t.epoch_ns);
  put_list(s, t.names, [&](const std::string& n) { s.put_string(n); });
  put_list(s, t.spans, [&](const ProfileEvent& ev) {
    s.put_u32(ev.name);
    s.put_u8(static_cast<uint8_t>(ev.cat));
    s.put_i64(ev.worker);
    s.put_u32(ev.tid);
    s.put_u64(ev.start_ns);
    s.put_u64(ev.dur_ns);
    s.put_u64(ev.seq);
    s.put_u64(ev.queue_wait_ns);
    s.put_u64(ev.launch);
    s.put_u64(ev.parent);
    s.put_u32(ev.origin);
  });
  put_list(s, t.samples, [&](const TaskSample& sample) {
    s.put_u64(sample.seq);
    s.put_u64(sample.dur_ns);
    put_seqs(s, sample.deps);
  });
  put_events(s, t.recent);
  return s.take();
}

std::vector<std::byte> encode_telemetry(const obs::RankStall& stall) {
  const obs::StallReport& r = stall.report;
  Serializer s;
  s.put_header();
  s.put_u8(static_cast<uint8_t>(TelemetryFlavor::kStallPush));
  s.put_u32(stall.rank);
  s.put_u64(r.completed);
  s.put_u64(r.pending);
  s.put_u64(r.window_ms);
  put_list(s, r.blocked, [&](const obs::BlockedTask& b) {
    s.put_u64(b.seq);
    s.put_u64(b.launch);
    s.put_string(b.label);
    put_seqs(s, b.waits_for);
  });
  put_events(s, r.recent);
  s.put_blob(serialize_metrics_snapshot(r.metrics));
  put_seqs(s, stall.pending_externals);
  return s.take();
}

std::variant<obs::RankTrace, obs::RankStall> decode_telemetry(
    const std::vector<std::byte>& bytes) {
  Deserializer d(bytes);
  d.check_header("telemetry message");
  const uint8_t flavor = d.get_u8();
  std::variant<obs::RankTrace, obs::RankStall> out;
  if (flavor == static_cast<uint8_t>(TelemetryFlavor::kShutdownPull)) {
    obs::RankTrace t;
    t.rank = d.get_u32();
    t.epoch_ns = d.get_u64();
    t.names = get_list<std::string>(d, [&] { return d.get_string(); });
    t.spans = get_list<ProfileEvent>(d, [&] {
      ProfileEvent ev;
      ev.name = d.get_u32();
      ev.cat = static_cast<ProfCategory>(d.get_u8());
      ev.worker = static_cast<int32_t>(d.get_i64());
      ev.tid = d.get_u32();
      ev.start_ns = d.get_u64();
      ev.dur_ns = d.get_u64();
      ev.seq = d.get_u64();
      ev.queue_wait_ns = d.get_u64();
      ev.launch = d.get_u64();
      ev.parent = d.get_u64();
      ev.origin = d.get_u32();
      return ev;
    });
    t.samples = get_list<TaskSample>(d, [&] {
      TaskSample sample;
      sample.seq = d.get_u64();
      sample.dur_ns = d.get_u64();
      sample.deps = get_seqs(d);
      return sample;
    });
    t.recent = get_events(d);
    out = std::move(t);
  } else {
    IDXL_REQUIRE(flavor == static_cast<uint8_t>(TelemetryFlavor::kStallPush),
                 "telemetry message of unknown flavor " + std::to_string(flavor));
    obs::RankStall stall;
    obs::StallReport& r = stall.report;
    stall.rank = d.get_u32();
    r.completed = d.get_u64();
    r.pending = d.get_u64();
    r.window_ms = d.get_u64();
    r.blocked = get_list<obs::BlockedTask>(d, [&] {
      obs::BlockedTask b;
      b.seq = d.get_u64();
      b.launch = d.get_u64();
      b.label = d.get_string();
      b.waits_for = get_seqs(d);
      return b;
    });
    r.recent = get_events(d);
    r.metrics = deserialize_metrics_snapshot(d.get_blob());
    stall.pending_externals = get_seqs(d);
    out = std::move(stall);
  }
  IDXL_REQUIRE(d.done(), "trailing bytes after telemetry message");
  return out;
}

}  // namespace idxl::dist
