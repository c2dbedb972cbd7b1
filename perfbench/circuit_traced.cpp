// circuit_traced: apps::CircuitApp (64 pieces x 64 nodes x 256 wires, 10%
// external wires) on a local Runtime with 2 workers. The circuit graph is
// fixed and --seed picks the time step: step cost varies by about +-10%
// between random graphs of this size, which would swamp the run-to-run
// spread the benchmark must resolve. Every timestep is wrapped in begin_trace/end_trace and closed by
// wait_all; voltages are compared with CircuitApp::reference_voltages. The
// aliased neighbourhood partition forces the per-point dependence tracker,
// the step has a reduction, and every point is replayed through the trace.
#include <cmath>
#include <memory>

#include "apps/circuit.hpp"
#include "harness.hpp"
#include "support/rng.hpp"

using namespace idxl;

namespace perfbench {
namespace {

constexpr uint32_t kTraceId = 1;

struct Circuit {
  apps::CircuitParams params;
  std::unique_ptr<Runtime> rt;
  std::unique_ptr<apps::CircuitApp> app;
  uint64_t steps = 0;  ///< timesteps issued so far, warm-up included
  double region_ns = 0;

  void build(bool traced) {
    app.reset();
    RuntimeConfig cfg;
    cfg.workers = 2;
    cfg.enable_profiling = traced;
    rt = std::make_unique<Runtime>(cfg);
    const uint64_t t0 = now_ns();
    app = std::make_unique<apps::CircuitApp>(*rt, params);
    region_ns = static_cast<double>(now_ns() - t0);
    steps = 0;
    // Warm-up: the first traced step captures the trace and fills the
    // verdict cache; the second is the first replay.
    SpanLog off(false, 0);
    for (int i = 0; i < 2; ++i) step(off);
  }

  void teardown() {
    app.reset();
    rt.reset();
  }

  void step(SpanLog& l) {
    {
      SpanScope s(l, "runtime.begin_trace");
      rt->begin_trace(kTraceId);
    }
    {
      SpanScope s(l, "apps.run_iteration");
      app->run_iteration();
    }
    {
      SpanScope s(l, "runtime.end_trace");
      rt->end_trace(kTraceId);
    }
    SpanScope s(l, "runtime.wait_all");
    rt->wait_all();
    ++steps;
  }

  Phase measure(double seconds, SpanLog& log, ProfTotals* prof) {
    Phase ph;
    uint64_t phase_steps = 0;
    uint64_t harvest_ns = 0;
    const uint64_t start = now_ns();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      const uint64_t w0 = now_ns();
      {
        SpanScope window(log, "bench.window");
        step(log);
      }
      ph.windows.push_back({w0, now_ns(), 3 * static_cast<uint64_t>(params.pieces),
                            static_cast<double>(params.pieces * params.wires_per_piece)});
      ++phase_steps;
      // Drain the profiler while quiescent (bounded memory), off the clock.
      if (prof != nullptr && phase_steps % 64 == 0) {
        const uint64_t h0 = now_ns();
        prof->harvest(rt->profiler(), /*reset=*/true);
        harvest_ns += now_ns() - h0;
      }
    }
    ph.wall_s = static_cast<double>(now_ns() - start - harvest_ns) * 1e-9;
    if (prof != nullptr) prof->harvest(rt->profiler(), /*reset=*/true);
    ph.launches = 3 * phase_steps;
    ph.points = ph.launches * static_cast<uint64_t>(params.pieces);
    ph.items = static_cast<double>(phase_steps) *
               static_cast<double>(params.pieces * params.wires_per_piece);
    ph.attempted = ph.launches;
    ph.failed = verify(ph.launches);
    return ph;
  }

  /// Failed launches of the phase: all of them when any voltage is off the
  /// serial reference, else those with a faulted task.
  uint64_t verify(uint64_t phase_launches) {
    const std::vector<double> actual = app->voltages();
    const std::vector<double> expect =
        apps::CircuitApp::reference_voltages(params, static_cast<int>(steps));
    if (actual.size() != expect.size()) return phase_launches;
    for (std::size_t i = 0; i < actual.size(); ++i)
      if (!(std::abs(actual[i] - expect[i]) <= 1e-9 * std::max(1.0, std::abs(expect[i]))))
        return phase_launches;
    return std::min(failed_launches(rt->fault_report()), phase_launches);
  }
};

}  // namespace

void run_circuit_traced(const Options& opt, Report& report) {
  Circuit c;
  c.params.pieces = opt.tiny ? 8 : 64;
  c.params.nodes_per_piece = opt.tiny ? 8 : 64;
  c.params.wires_per_piece = opt.tiny ? 32 : 256;
  c.params.pct_external = 10;
  c.params.dt = 5e-3 + 1e-2 * idxl::Rng(opt.seed).next_double();
  const double setup_s =
      timed_setups(setup_reps(opt), [&] { c.build(false); }, [&] { c.teardown(); });

  SpanLog off(false, 0);
  const double untraced_s = opt.trace ? opt.seconds * 0.5 : opt.seconds;
  const Phase untraced = c.measure(untraced_s, off, nullptr);
  report.attempted += untraced.attempted;
  report.failed += untraced.failed;
  if (!opt.trace) {
    report_end_to_end(report, setup_s, untraced);
    return;
  }

  c.teardown();
  c.build(true);
  SpanLog log(true, 0);
  CommonLayers layers;
  const Phase traced = c.measure(opt.seconds - untraced_s, log, &layers.prof);
  layers.stats = c.rt->stats();
  layers.flight_events = c.rt->flight_recorder().recorded();
  layers.runtime_metrics = c.rt->metrics().snapshot();
  layers.life_launches = 3 * c.steps;
  layers.life_points = layers.life_launches * static_cast<uint64_t>(c.params.pieces);
  const std::vector<const SpanLog*> logs{&log};
  layers.issue_ns = span_total_ns(logs, "apps.run_iteration");
  layers.wait_ns = span_total_ns(logs, "runtime.wait_all");
  layers.span_phase = true;
  layers.region_setup_ns = c.region_ns;
  report.attempted += traced.attempted;
  report.failed += traced.failed;
  report_common_layers(report, layers, untraced, traced);
  const double steps = static_cast<double>(traced.launches / 3);
  report.layer_only("runtime.trace_ns_per_step",
                    static_cast<double>(span_total_ns(logs, "runtime.begin_trace") +
                                        span_total_ns(logs, "runtime.end_trace")) /
                        steps,
                    "ns");
  report.layers = layer_times(logs);
  if (!opt.spans_path.empty()) write_spans(opt.spans_path, opt.workload, logs);
}

}  // namespace perfbench
