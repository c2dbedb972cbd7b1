#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>

namespace perfbench {

uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

int32_t SpanLog::begin(const char* name) {
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.thread = thread_;
  spans_.push_back(s);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void SpanLog::end(int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<LayerTime> layer_times(const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerTime> by_name;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const uint64_t dur = spans[i].end_ns - spans[i].start_ns;
      LayerTime& t = by_name[spans[i].name];
      t.name = spans[i].name;
      ++t.count;
      t.total_ns += dur;
      t.self_ns += dur - std::min(dur, child_ns[i]);
    }
  }
  std::vector<LayerTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

uint64_t span_total_ns(const std::vector<const SpanLog*>& logs, const char* name) {
  uint64_t total = 0;
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans())
      if (std::string_view(s.name) == name) total += s.end_ns - s.start_ns;
  return total;
}

std::vector<double> span_durations_ns(const std::vector<const SpanLog*>& logs,
                                      const char* name) {
  std::vector<double> out;
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans())
      if (std::string_view(s.name) == name)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
  return 1;
}

double timed_setups(int reps, const std::function<void()>& setup,
                    const std::function<void()>& teardown) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = now_ns();
    setup();
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    if (r + 1 < reps) teardown();
  }
  return median(times);
}

double median_rate(const Phase& phase, bool points) {
  constexpr int kSlices = 10;
  if (phase.windows.empty()) return 0;
  uint64_t t0 = UINT64_MAX, t1 = 0;
  for (const Window& w : phase.windows) {
    t0 = std::min(t0, w.start_ns);
    t1 = std::max(t1, w.end_ns);
  }
  struct Slice {
    uint64_t first = UINT64_MAX, last = 0;
    double work = 0;
  };
  std::vector<Slice> slices(kSlices);
  const double width = static_cast<double>(t1 - t0) / kSlices;
  for (const Window& w : phase.windows) {
    const auto k = std::min<std::size_t>(
        kSlices - 1, static_cast<std::size_t>(static_cast<double>(w.end_ns - t0) / width));
    Slice& s = slices[k];
    s.first = std::min(s.first, w.start_ns);
    s.last = std::max(s.last, w.end_ns);
    s.work += points ? static_cast<double>(w.points) : w.items;
  }
  std::vector<double> rates;
  for (const Slice& s : slices)
    if (s.last > s.first) rates.push_back(s.work / (static_cast<double>(s.last - s.first) * 1e-9));
  return median(rates);
}

void report_end_to_end(Report& report, double setup_s, const Phase& phase) {
  if (phase.points == 0 || phase.wall_s <= 0 || phase.windows.empty())
    throw std::runtime_error("measured phase did no work");
  std::vector<double> latency_us;
  for (const Window& w : phase.windows)
    latency_us.push_back(static_cast<double>(w.end_ns - w.start_ns) * 1e-3);
  report.metric("setup_s", setup_s, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  report.metric("ok_frac",
                phase.attempted == 0
                    ? 0.0
                    : 1.0 - static_cast<double>(phase.failed) /
                                static_cast<double>(phase.attempted),
                "fraction");
  report.metric("point_task_us", 1e6 / median_rate(phase, /*points=*/true), "us");
  report.metric("items_per_s", median_rate(phase, /*points=*/false), "1/s");
  report.metric("window_p50_us", median(latency_us), "us");
  // p90, not p99: on a shared machine p99 sits on the edge of the windows
  // a descheduled thread stalls and swings by 2x between runs.
  report.metric("window_p90_us", percentile(latency_us, 0.9), "us");
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "windows=%zu p95=%.1f p99=%.1f us; %llu launches, %llu point tasks "
                "in %.3f s",
                latency_us.size(), percentile(latency_us, 0.95), percentile(latency_us, 0.99),
                static_cast<unsigned long long>(phase.launches),
                static_cast<unsigned long long>(phase.points), phase.wall_s);
  report.note(buf);
}

uint64_t failed_launches(const idxl::FaultReport& report) {
  std::set<uint64_t> launches;
  for (const auto* list : {&report.failures, &report.poisoned})
    for (const idxl::TaskFault& f : *list) launches.insert(f.launch);
  return launches.size();
}

double histogram_mean(const idxl::obs::MetricsSnapshot& snap, const char* family) {
  const idxl::obs::FamilySnapshot* fam = snap.family(family);
  if (fam == nullptr) return 0;
  uint64_t sum = 0, count = 0;
  for (const idxl::obs::SeriesSnapshot& s : fam->series) {
    sum += s.sum;
    count += s.count;
  }
  return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
}

uint64_t counter_sum(const idxl::obs::MetricsSnapshot& snap, const char* family,
                     const idxl::obs::Labels& match) {
  const idxl::obs::FamilySnapshot* fam = snap.family(family);
  if (fam == nullptr) return 0;
  uint64_t total = 0;
  for (const idxl::obs::SeriesSnapshot& s : fam->series) {
    const bool all = std::all_of(match.begin(), match.end(), [&](const auto& kv) {
      return std::find(s.labels.begin(), s.labels.end(), kv) != s.labels.end();
    });
    if (all) total += s.counter;
  }
  return total;
}

void ProfTotals::harvest(idxl::Profiler& prof, bool reset) {
  using idxl::ProfCategory;
  // events() is sorted by (tid, start): track the enclosing issue span of
  // each lane and count the safety/dependence/trace spans nested in it.
  uint32_t lane = UINT32_MAX;
  uint64_t issue_end = 0;
  for (const idxl::ProfileEvent& e : prof.events()) {
    if (e.tid != lane) {
      lane = e.tid;
      issue_end = 0;
    }
    switch (e.cat) {
      case ProfCategory::kIssue:
        issue_ns += e.dur_ns;
        issue_end = std::max(issue_end, e.start_ns + e.dur_ns);
        break;
      case ProfCategory::kSafety:
      case ProfCategory::kDependence:
      case ProfCategory::kTrace:
        (e.cat == ProfCategory::kSafety       ? safety_ns
         : e.cat == ProfCategory::kDependence ? dependence_ns
                                              : trace_ns) += e.dur_ns;
        if (e.start_ns + e.dur_ns <= issue_end) issue_nested_ns += e.dur_ns;
        break;
      case ProfCategory::kTask:
        task_ns += e.dur_ns;
        break;
      case ProfCategory::kRuntime:
        if (e.name == idxl::Profiler::kNameWaitAll) wait_ns += e.dur_ns;
        break;
      default:
        break;
    }
  }
  if (reset) prof.reset();
}

void report_common_layers(Report& report, const CommonLayers& l,
                          const Phase& untraced, const Phase& traced) {
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto points = static_cast<double>(l.life_points);
  const auto launches = static_cast<double>(l.life_launches);
  const auto call_points = static_cast<double>(l.span_phase ? traced.points : l.life_points);
  const idxl::RuntimeStats& s = l.stats;
  const auto ns = [](uint64_t v) { return static_cast<double>(v); };
  report.metric("runtime.issue_ns_per_point", per(ns(l.issue_ns), call_points), "ns");
  report.metric("runtime.wait_ns_per_point", per(ns(l.wait_ns), call_points), "ns");
  report.metric("runtime.issue_self_ns_per_point",
                per(ns(l.prof.issue_ns - std::min(l.prof.issue_ns, l.prof.issue_nested_ns)),
                    points),
                "ns");
  report.metric("runtime.safety_ns_per_launch", per(ns(l.prof.safety_ns), launches), "ns");
  report.metric("runtime.dependence_ns_per_point", per(ns(l.prof.dependence_ns), points), "ns");
  report.metric("runtime.task_ns_mean",
                histogram_mean(l.runtime_metrics, "idxl_task_duration_ns"), "ns");
  report.metric("runtime.pool_queue_wait_ns_mean",
                histogram_mean(l.runtime_metrics, "idxl_task_queue_wait_ns"), "ns");
  report.metric("runtime.dependence_tests_per_point", per(ns(s.dependence_tests), points),
                "count");
  report.metric("runtime.group_edges_per_launch", per(ns(s.group_edges), launches), "count");
  report.metric("runtime.group_fallbacks_per_launch", per(ns(s.group_fallbacks), launches),
                "count");
  report.metric("runtime.replayed_frac",
                per(ns(s.traced_tasks_replayed), ns(s.point_tasks)), "fraction");
  report.metric("analysis.verdict_cache_hit_frac",
                per(ns(s.verdict_cache_hits), ns(s.verdict_cache_hits + s.verdict_cache_misses)),
                "fraction");
  report.metric("analysis.dynamic_check_points_per_launch",
                per(ns(s.dynamic_check_points), launches), "count");
  report.metric("analysis.interference_skips_per_launch",
                per(ns(s.interference_skips), launches), "count");
  report.metric("obs.flight_events_per_point", per(ns(l.flight_events), points), "count");
  report.metric("obs.trace_overhead_frac",
                per(traced.wall_s / ns(traced.points), untraced.wall_s / ns(untraced.points)),
                "ratio");
  report.metric("region.setup_ns", l.region_setup_ns, "ns");
}

void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write spans to " + path);
  std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [", workload.c_str());
  bool first = true;
  for (const SpanLog* log : logs)
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"thread\": %u, \"start\": %llu, "
                   "\"end\": %llu, \"parent\": %d, \"workload\": \"%s\"}",
                   first ? "" : ",", s.name, s.thread,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns), s.parent,
                   workload.c_str());
      first = false;
    }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

}  // namespace perfbench
