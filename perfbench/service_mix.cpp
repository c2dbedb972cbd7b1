// service_mix: an in-process ServiceRuntime over a local Runtime (1
// worker: the per-launch work is tiny, and the process already runs ~15
// threads on 4 CPUs), with four sessions on four Unix-domain connections and
// fair-share weights 1-4; the seed picks each session's initial value. Each
// session runs a closed loop on its own thread: a window of 8 pipelined
// 4-point smoke_increment launches, then fence. Every 16th window it reads
// its field back and checks it against its own increment count, so reads
// sit beside writes. Admission, per-session handle translation, epoch
// flushes and framing dominate; the per-launch runtime work is tiny.
#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "dist/smoke_tasks.hpp"
#include "harness.hpp"
#include "runtime/runtime.hpp"
#include "service/client.hpp"
#include "service/service_runtime.hpp"
#include "support/rng.hpp"

using namespace idxl;

namespace perfbench {
namespace {

constexpr int kSessions = 4;
constexpr int kWindow = 8;        // pipelined launches per window
constexpr int kReadEvery = 16;    // windows between read-backs
constexpr int64_t kElems = 32;
constexpr int64_t kBlocks = 4;

struct Session {
  std::unique_ptr<service::ServiceClient> client;
  RegionId region;
  FieldId field = 0;
  IndexLauncher launcher;
  double init = 0;
  uint64_t increments = 0;  ///< launches acknowledged so far
};

/// What one session's thread measured.
struct SessionPhase {
  std::vector<Window> windows;
  uint64_t launches = 0;
  uint64_t reads = 0;
  uint64_t failed = 0;
  bool mismatch = false;
  std::string error;
};

struct Mix {
  Runtime* backend = nullptr;  ///< owned by `server`
  std::unique_ptr<service::ServiceRuntime> server;
  std::vector<Session> sessions;
  double region_ns = 0;

  void build(bool traced, uint64_t seed) {
    teardown();
    RuntimeConfig rc;
    rc.workers = 1;
    rc.enable_profiling = traced;
    auto rt = std::make_unique<Runtime>(rc);
    backend = rt.get();
    service::ServiceConfig sc;
    server = std::make_unique<service::ServiceRuntime>(std::move(rt), sc);

    Rng rng(seed);
    region_ns = 0;
    for (int i = 0; i < kSessions; ++i) {
      auto [server_end, client_end] = net::Socket::pair();
      server->serve_socket(std::move(server_end));
      service::ClientHello hello;
      hello.tenant = "mix-" + std::to_string(i);
      hello.weight = static_cast<uint32_t>(i + 1);
      Session s;
      s.client = std::make_unique<service::ServiceClient>(std::move(client_end), hello);
      service::ServiceClient& c = *s.client;
      const uint64_t t0 = now_ns();
      const IndexSpaceId is = c.create_index_space(Domain(Rect::line(kElems)));
      const FieldSpaceId fs = c.create_field_space();
      s.field = c.allocate_field(fs, sizeof(double), "v");
      std::vector<Domain> blocks;
      for (int64_t b = 0; b < kBlocks; ++b)
        blocks.emplace_back(Rect(Point::p1(b * (kElems / kBlocks)),
                                 Point::p1((b + 1) * (kElems / kBlocks) - 1)));
      const PartitionId part =
          c.create_partition(is, Rect::line(kBlocks), blocks, Disjointness::kDisjoint);
      s.region = c.create_region(is, fs);
      c.flush_setup();
      region_ns += static_cast<double>(now_ns() - t0);
      s.init = static_cast<double>(rng.next_below(1u << 20));
      c.fill(s.region, s.field, s.init);
      dist::smoke::StencilArgs args;
      args.fin = s.field;
      s.launcher = IndexLauncher::over(Domain(Rect::line(kBlocks)))
                       .with_task(c.task_id("smoke_increment"))
                       .region(s.region, part, ProjectionFunctor::identity(1), {s.field},
                               Privilege::kReadWrite)
                       .scalars(args);
      // Warm-up window: session state, caches and the first epoch.
      for (int k = 0; k < kWindow; ++k) c.launch(s.launcher);
      if (!c.fence().ok()) throw std::runtime_error("warm-up window faulted");
      s.increments = kWindow;
      sessions.push_back(std::move(s));
    }
  }

  void teardown() {
    for (Session& s : sessions) s.client->goodbye();
    sessions.clear();
    if (server != nullptr) server->drain();
    server.reset();
    backend = nullptr;
  }

  /// One session's closed loop until `deadline`.
  static void loop(Session& s, uint64_t deadline, SpanLog& log, SessionPhase& out) {
    try {
      service::ServiceClient& c = *s.client;
      const uint64_t rejects0 = c.rejects();
      while (now_ns() < deadline) {
        const uint64_t w0 = now_ns();
        {
          SpanScope window(log, "bench.window");
          for (int k = 0; k < kWindow; ++k) {
            SpanScope span(log, "service.launch");
            c.launch(s.launcher);
          }
          SpanScope span(log, "service.fence");
          const FaultReport faults = c.fence();
          if (!faults.ok()) out.failed += failed_launches(faults);
        }
        out.windows.push_back({w0, now_ns(), kWindow * static_cast<uint64_t>(kBlocks),
                               static_cast<double>(kWindow)});
        out.launches += kWindow;
        s.increments += kWindow;
        if (out.windows.size() % kReadEvery == 0) {
          std::vector<std::byte> bytes;
          {
            SpanScope span(log, "service.read_field");
            bytes = c.read_field(s.region, s.field);
          }
          ++out.reads;
          const double expect = s.init + static_cast<double>(s.increments);
          if (bytes.size() != kElems * sizeof(double)) out.mismatch = true;
          for (std::size_t i = 0; !out.mismatch && i < static_cast<std::size_t>(kElems); ++i) {
            double v = 0;
            std::memcpy(&v, bytes.data() + i * sizeof(double), sizeof(double));
            if (v != expect) out.mismatch = true;
          }
        }
      }
      out.failed += c.rejects() - rejects0;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
  }

  Phase measure(double seconds, bool traced, std::vector<SpanLog>& logs) {
    logs.clear();
    for (int i = 0; i < kSessions; ++i) logs.emplace_back(traced, static_cast<uint32_t>(i));
    std::vector<SessionPhase> per(kSessions);
    const uint64_t start = now_ns();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < sessions.size(); ++i)
      threads.emplace_back(loop, std::ref(sessions[i]), deadline, std::ref(logs[i]),
                           std::ref(per[i]));
    for (std::thread& t : threads) t.join();
    Phase ph;
    ph.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
    bool broken = false;
    for (const SessionPhase& p : per) {
      ph.windows.insert(ph.windows.end(), p.windows.begin(), p.windows.end());
      ph.launches += p.launches;
      ph.attempted += p.launches + p.reads;
      ph.failed += p.failed;
      broken = broken || p.mismatch || !p.error.empty();
      if (!p.error.empty()) throw std::runtime_error("session failed: " + p.error);
    }
    if (broken) ph.failed = ph.attempted;
    ph.failed = std::min(ph.failed, ph.attempted);
    ph.points = ph.launches * static_cast<uint64_t>(kBlocks);
    ph.items = static_cast<double>(ph.launches);
    return ph;
  }
};

}  // namespace

void run_service_mix(const Options& opt, Report& report) {
  // The load generator: one thread and one connection per session.
  if (static_cast<unsigned>(kSessions) > nproc())
    throw std::runtime_error("service_mix needs " + std::to_string(kSessions) +
                             " generator threads but only " + std::to_string(nproc()) +
                             " CPUs are available");
  Mix mix;
  const double setup_s = timed_setups(
      setup_reps(opt), [&] { mix.build(false, opt.seed); }, [&] { mix.teardown(); });

  std::vector<SpanLog> logs;
  const double untraced_s = opt.trace ? opt.seconds * 0.5 : opt.seconds;
  const Phase untraced = mix.measure(untraced_s, false, logs);
  report.attempted += untraced.attempted;
  report.failed += untraced.failed;
  if (!opt.trace) {
    report_end_to_end(report, setup_s, untraced);
    mix.teardown();
    return;
  }

  mix.build(true, opt.seed);
  CommonLayers layers;
  Runtime& rt = *mix.backend;
  const obs::MetricsSnapshot svc_before = mix.server->metrics().snapshot();
  // The backend profiler records ~10 events per launch and can only be
  // drained while the scheduler thread is idle, which the benchmark cannot
  // observe from outside; a short traced phase keeps its memory bounded.
  const Phase traced = mix.measure(std::min(opt.seconds - untraced_s, 1.0), true, logs);
  // Every session's last fence retired its launches: the backend is idle.
  const obs::MetricsSnapshot svc_after = mix.server->metrics().snapshot();
  layers.stats = rt.stats();
  layers.flight_events = rt.flight_recorder().recorded();
  layers.life_launches = kSessions * kWindow + traced.launches;
  layers.life_points = layers.life_launches * static_cast<uint64_t>(kBlocks);
  layers.runtime_metrics = rt.metrics().snapshot();
  layers.prof.harvest(rt.profiler(), /*reset=*/false);
  layers.issue_ns = layers.prof.issue_ns;
  layers.wait_ns = layers.prof.wait_ns;
  layers.region_setup_ns = mix.region_ns;
  report.attempted += traced.attempted;
  report.failed += traced.failed;
  report_common_layers(report, layers, untraced, traced);

  std::vector<const SpanLog*> log_ptrs;
  for (const SpanLog& l : logs) log_ptrs.push_back(&l);
  const auto delta = [&](const char* family) {
    return static_cast<double>(counter_sum(svc_after, family) - counter_sum(svc_before, family));
  };
  report.layer_only("service.launch_call_ns_p50",
                    percentile(span_durations_ns(log_ptrs, "service.launch"), 0.5), "ns");
  report.layer_only("service.fence_call_ns_p99",
                    percentile(span_durations_ns(log_ptrs, "service.fence"), 0.99), "ns");
  report.layer_only("service.read_call_ns_p50",
                    percentile(span_durations_ns(log_ptrs, "service.read_field"), 0.5), "ns");
  report.layer_only("service.admission_wait_ns_mean",
                    histogram_mean(svc_after, "idxl_task_queue_wait_ns"), "ns");
  report.layer_only("service.flush_ns_mean", histogram_mean(svc_after, "idxl_service_flush_ns"),
                    "ns");
  const double epochs = delta("idxl_service_epochs_total");
  report.layer_only("service.launches_per_epoch",
                    epochs > 0 ? delta("idxl_service_launches_total") / epochs : 0.0, "count");
  report.layer_only("service.reject_frac",
                    static_cast<double>(traced.failed) / static_cast<double>(traced.attempted),
                    "fraction");
  report.layers = layer_times(log_ptrs);
  if (!opt.spans_path.empty()) write_spans(opt.spans_path, opt.workload, log_ptrs);
  mix.teardown();
}

}  // namespace perfbench
