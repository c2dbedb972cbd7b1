// Stencil demo: the PRK 2-D star stencil with aliased halo partitions.
// Shows dynamic tracing amortizing the dependence analysis across
// iterations (Lee et al. [20]) while results stay identical.
#include <cmath>
#include <cstdio>

#include "apps/stencil.hpp"
#include "runtime/runtime.hpp"

using namespace idxl;
using namespace idxl::apps;

int main() {
  StencilParams params;
  params.nx = params.ny = 96;
  params.px = params.py = 4;
  params.radius = 2;
  params.iterations = 12;

  auto run_with = [&](bool traced) {
    Runtime rt;
    StencilApp app(rt, params);
    for (int it = 0; it < params.iterations; ++it) {
      if (traced) rt.begin_trace(1);
      app.run_iteration();
      if (traced) rt.end_trace(1);
    }
    rt.wait_all();
    std::printf("%-10s dependence tests=%-8llu tasks replayed from trace=%llu\n",
                traced ? "traced" : "untraced",
                static_cast<unsigned long long>(rt.stats().dependence_tests),
                static_cast<unsigned long long>(rt.stats().traced_tasks_replayed));
    return app.output();
  };

  std::printf("stencil: %lldx%lld grid, %lldx%lld tasks, radius %lld, %d steps\n",
              static_cast<long long>(params.nx), static_cast<long long>(params.ny),
              static_cast<long long>(params.px), static_cast<long long>(params.py),
              static_cast<long long>(params.radius), params.iterations);

  const auto untraced = run_with(false);
  const auto traced = run_with(true);
  const auto reference = StencilApp::reference_output(params, params.iterations);

  double max_err = 0, max_diff = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    max_err = std::max(max_err, std::abs(untraced[i] - reference[i]));
    max_diff = std::max(max_diff, std::abs(untraced[i] - traced[i]));
  }
  std::printf("max |error| vs serial reference: %.3e\n", max_err);
  std::printf("max |traced - untraced|:         %.3e (must be exactly 0)\n", max_diff);
  return max_err < 1e-9 && max_diff == 0.0 ? 0 : 1;
}
