// Shared plumbing of the benchmark harness: options, the benchmark's own
// span log, the per-run report, and the helpers every workload uses to read
// the runtime's public counters. Workloads live one per file
// (launch_storm.cpp, circuit_traced.cpp, stencil_dist.cpp, service_mix.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "runtime/api.hpp"

namespace idxl {
class Runtime;
}

namespace perfbench {

uint64_t now_ns();

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: every workload shrinks its problem and its run.
  bool tiny = false;
  /// Where the traced run writes its spans (empty = nowhere).
  std::string spans_path;
};

/// One span of the benchmark's own tracing: a call the benchmark made into a
/// layer's public API. `parent` indexes the enclosing span of the same
/// thread's log (-1 at the root).
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t thread = 0;
};

/// Per-thread, in-memory span log. A disabled log records nothing and costs
/// one branch per scope, so the untraced phases run with the same code.
class SpanLog {
 public:
  SpanLog(bool on, uint32_t thread) : on_(on), thread_(thread) {}
  bool on() const { return on_; }
  int32_t begin(const char* name);
  void end(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  uint32_t thread_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name)
      : log_(log), index_(log.on() ? log.begin(name) : -1) {}
  ~SpanScope() {
    if (index_ >= 0) log_.end(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  int32_t index_;
};

/// Total and self time per span name over any number of thread logs. Self
/// time is a span's duration minus the part its child spans cover.
struct LayerTime {
  std::string name;
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};
std::vector<LayerTime> layer_times(const std::vector<const SpanLog*>& logs);
/// Sum of durations of every span called `name` (0 when absent).
uint64_t span_total_ns(const std::vector<const SpanLog*>& logs, const char* name);
/// Durations in ns of every span called `name`, in record order.
std::vector<double> span_durations_ns(const std::vector<const SpanLog*>& logs,
                                      const char* name);

/// One window of a closed loop: issue of its first launch to the return of
/// the fence that retires it, as the benchmark's clock saw it.
struct Window {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t points = 0;  ///< point tasks the window ran
  double items = 0;     ///< the workload's unit of useful work
};

/// One measured phase of a workload.
struct Phase {
  double wall_s = 0;
  uint64_t points = 0;        ///< point tasks executed
  uint64_t launches = 0;      ///< index launches completed
  double items = 0;           ///< the workload's unit of useful work
  std::vector<Window> windows;
  uint64_t attempted = 0;     ///< operations attempted
  uint64_t failed = 0;        ///< failed, refused, poisoned or unverified
};

/// Median over kSlices equal time slices of the phase of the rate of
/// `points` (or `items`) per second, windows assigned by their end time. A
/// burst of load from outside the benchmark moves a few slices, not the
/// median.
double median_rate(const Phase& phase, bool points);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything a run reports. `metrics` goes to the final JSON line
/// (end-to-end metrics untraced, per-layer metrics traced); `extra` holds
/// the workload-specific layer metrics, printed in the traced-run table.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;
  std::vector<LayerTime> layers;
  std::vector<std::string> notes;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void layer_only(std::string name, double value, std::string unit) {
    extra.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string s) { notes.push_back(std::move(s)); }
};

/// Percentile by linear interpolation between closest ranks; `q` in [0,1].
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Peak resident set of this process, MiB.
double peak_rss_mb();
/// Online CPUs this process may run on.
unsigned nproc();

/// Set-ups timed per run; setup_s is their median.
inline int setup_reps(const Options& opt) { return opt.tiny ? 2 : 9; }

/// Run `setup` `reps` times, running `teardown` after every rep but the
/// last, and return the median wall time in seconds. The last rep's state is
/// what the measured phase runs on.
double timed_setups(int reps, const std::function<void()>& setup,
                    const std::function<void()>& teardown);

/// The end-to-end metrics shared by every workload, from the untraced
/// phase (see README.md for each workload's window and item).
void report_end_to_end(Report& report, double setup_s, const Phase& phase);

/// Distinct launches with a failed or poisoned task in `report`.
uint64_t failed_launches(const idxl::FaultReport& report);

/// Histogram mean (sum / count) over every series of `family`; 0 if empty.
double histogram_mean(const idxl::obs::MetricsSnapshot& snap, const char* family);
/// Sum of the counter series of `family` whose labels include every pair of
/// `match` (an empty match sums the whole family).
uint64_t counter_sum(const idxl::obs::MetricsSnapshot& snap, const char* family,
                     const idxl::obs::Labels& match = {});

/// Busy time per ProfCategory harvested from a runtime's profiler, plus the
/// part of issue time not covered by nested safety/dependence/trace spans.
struct ProfTotals {
  uint64_t issue_ns = 0;
  uint64_t issue_nested_ns = 0;
  uint64_t safety_ns = 0;
  uint64_t dependence_ns = 0;
  uint64_t trace_ns = 0;
  uint64_t wait_ns = 0;
  uint64_t task_ns = 0;

  /// Fold `prof`'s events in. With `reset`, the profiler is emptied after
  /// (only while the runtime is quiescent), so a long traced phase keeps
  /// bounded memory.
  void harvest(idxl::Profiler& prof, bool reset);
};

/// The per-layer metrics every workload measures (README.md, "Per-layer
/// metrics"). Runtime counters, profiler totals and flight events cover the
/// traced runtime's whole life, warm-up included, so costs a trace or a
/// cache pays once are amortized; they are divided by the logical point
/// tasks and launches issued over that life. `issue_ns`/`wait_ns` are the
/// time inside the runtime's issue and wait calls; where they come from the
/// benchmark's own spans they cover only the traced phase, and
/// `span_phase` says so.
struct CommonLayers {
  idxl::RuntimeStats stats;
  idxl::obs::MetricsSnapshot runtime_metrics;
  ProfTotals prof;
  uint64_t life_points = 0;
  uint64_t life_launches = 0;
  uint64_t issue_ns = 0;
  uint64_t wait_ns = 0;
  bool span_phase = false;
  uint64_t flight_events = 0;
  double region_setup_ns = 0;
};
void report_common_layers(Report& report, const CommonLayers& layers,
                          const Phase& untraced, const Phase& traced);

/// Workload entry points: fill `report` from a run with `opt`.
void run_launch_storm(const Options& opt, Report& report);
void run_circuit_traced(const Options& opt, Report& report);
void run_stencil_dist(const Options& opt, Report& report);
void run_service_mix(const Options& opt, Report& report);

/// Write the spans of `logs` as JSON (name, start, end, parent, workload).
void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
