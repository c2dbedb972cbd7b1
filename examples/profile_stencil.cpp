// Profile the PRK stencil: run a few iterations with
// RuntimeConfig::enable_profiling, then
//   * write a Chrome-trace JSON (open in about:tracing or ui.perfetto.dev),
//   * print the plain-text summary (p50/p95/max per task),
//   * print the critical path through the recorded task graph.
//
// Usage: profile_stencil [trace-file]   (default: profile_stencil.trace.json)
#include <cmath>
#include <cstdio>

#include "apps/stencil.hpp"
#include "obs/event_log.hpp"
#include "runtime/runtime.hpp"

using namespace idxl;
using namespace idxl::apps;

int main(int argc, char** argv) {
  const char* trace_path = argc > 1 ? argv[1] : "profile_stencil.trace.json";

  StencilParams params;
  params.nx = params.ny = 128;
  params.px = params.py = 4;
  params.radius = 2;
  params.iterations = 8;

  RuntimeConfig cfg;
  cfg.enable_profiling = true;
  Runtime rt(cfg);
  StencilApp app(rt, params);

  {
    obs::EventLog::Scope setup = rt.profiler().phase("iterations 0-3 (untraced)");
    for (int it = 0; it < params.iterations / 2; ++it) app.run_iteration();
    rt.wait_all();
  }
  {
    // Second half under a trace: iteration 4 captures the dependence
    // analysis, 5-7 replay it — both span kinds land in the profile.
    obs::EventLog::Scope traced = rt.profiler().phase("iterations 4-7 (traced)");
    for (int it = params.iterations / 2; it < params.iterations; ++it) {
      rt.begin_trace(1);
      app.run_iteration();
      rt.end_trace(1);
    }
    rt.wait_all();
  }

  rt.profiler().write_chrome_trace(trace_path);
  std::printf("%s", rt.profiler().summary().c_str());
  std::printf("\nwrote %s (%zu events) — load it in about:tracing or "
              "ui.perfetto.dev\n",
              trace_path, rt.profiler().event_count());

  // Sanity: the run must have produced the same answer as the serial
  // reference, profiled or not.
  const auto out = app.output();
  const auto ref = StencilApp::reference_output(params, params.iterations);
  for (std::size_t i = 0; i < ref.size(); ++i)
    if (std::abs(out[i] - ref[i]) > 1e-9) {
      std::fprintf(stderr, "mismatch at %zu\n", i);
      return 1;
    }
  return 0;
}
