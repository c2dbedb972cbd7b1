// perfbench: runs one named workload against the runtime's public APIs and
// prints its metrics. With --trace 0 the final JSON line carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics, and
// the run also prints the per-layer table and writes the benchmark's spans.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--tiny] [--spans PATH] [--commit ID]
//
// Normally started through run.py, which builds this binary first.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

using namespace perfbench;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload launch_storm|circuit_traced|stencil_dist|"
               "service_mix [--seed N] [--seconds S] [--trace 0|1] [--tiny] "
               "[--spans PATH] [--commit ID]\n",
               argv0);
  return 2;
}

void print_number(double v) {
  // Full precision: the value as measured, not rounded for display.
  std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) opt.workload = argv[++i];
    else if (arg == "--seed" && has_value) opt.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (arg == "--seconds" && has_value) opt.seconds = std::atof(argv[++i]);
    else if (arg == "--trace" && has_value) opt.trace = std::string(argv[++i]) == "1";
    else if (arg == "--spans" && has_value) opt.spans_path = argv[++i];
    else if (arg == "--commit" && has_value) commit = argv[++i];
    else if (arg == "--tiny") opt.tiny = true;
    else return usage(argv[0]);
  }
  if (opt.seconds <= 0) return usage(argv[0]);

  std::printf("env: nproc=%u build_type=%s optimized=%d sanitizer=%d compiler=\"%s\" "
              "commit=%s workload=%s seed=%llu seconds=%g trace=%d tiny=%d\n",
              nproc(), PERFBENCH_BUILD_TYPE, kOptimized ? 1 : 0, kSanitized ? 1 : 0,
              PERFBENCH_COMPILER, commit.c_str(), opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0,
              opt.tiny ? 1 : 0);
  // Numbers from unoptimized or sanitizer builds are not comparable with
  // anything; refuse rather than report them.
  if (!kOptimized || kSanitized) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build\n",
                 kSanitized ? "sanitizer" : "non-optimized");
    return 3;
  }

  Report report;
  try {
    if (opt.workload == "launch_storm") run_launch_storm(opt, report);
    else if (opt.workload == "circuit_traced") run_circuit_traced(opt, report);
    else if (opt.workload == "stencil_dist") run_stencil_dist(opt, report);
    else if (opt.workload == "service_mix") run_service_mix(opt, report);
    else return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  for (const Metric& m : report.metrics)
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: %s is not finite\n", m.name.c_str());
      return 1;
    }
  report.note("peak_rss_mb=" + std::to_string(peak_rss_mb()));
  for (const std::string& note : report.notes) std::printf("note: %s\n", note.c_str());
  if (opt.trace) {
    std::printf("%-28s %10s %14s %14s\n", "span (benchmark-side)", "count",
                "total_ms", "self_ms");
    for (const LayerTime& t : report.layers)
      std::printf("%-28s %10llu %14.3f %14.3f\n", t.name.c_str(),
                  static_cast<unsigned long long>(t.count),
                  static_cast<double>(t.total_ns) * 1e-6,
                  static_cast<double>(t.self_ns) * 1e-6);
    std::printf("%-40s %18s %s\n", "per-layer metric", "value", "unit");
    for (const auto* list : {&report.metrics, &report.extra})
      for (const Metric& m : *list)
        std::printf("%-40s %18.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    print_number(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
