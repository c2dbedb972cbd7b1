#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "obs/aggregate.hpp"
#include "obs/metrics.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "test_json.hpp"

namespace idxl {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Labels;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using testjson::JsonParser;
using testjson::JValue;

// ---------- handles ----------

TEST(MetricsTest, CounterCountsAndGaugeMoves) {
  MetricsRegistry reg;
  const Counter c = reg.counter("requests_total", "requests");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  const Gauge g = reg.gauge("queue_depth", "depth");
  g.set(7);
  g.add(5);
  g.sub(13);
  EXPECT_EQ(g.value(), -1);
}

TEST(MetricsTest, DefaultHandlesAreInert) {
  // Instrumented code holds default handles until wiring happens; they must
  // absorb writes without crashing.
  Counter c;
  Gauge g;
  Histogram h;
  c.inc(3);
  g.set(-5);
  h.observe(100);
  EXPECT_EQ(c.value(), 0u);  // reads come back empty... (shared sink)
  (void)g;
  (void)h;
}

TEST(MetricsTest, SameNameAndLabelsIsTheSameSeries) {
  MetricsRegistry reg;
  const Counter a = reg.counter("hits_total", "", {{"tier", "l1"}, {"op", "read"}});
  // Label order must not matter.
  const Counter b = reg.counter("hits_total", "", {{"op", "read"}, {"tier", "l1"}});
  const Counter other = reg.counter("hits_total", "", {{"op", "write"}, {"tier", "l1"}});
  a.inc();
  b.inc();
  other.inc(5);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("hits_total", {{"tier", "l1"}, {"op", "read"}}), 2u);
  EXPECT_EQ(snap.value("hits_total", {{"op", "write"}, {"tier", "l1"}}), 5u);
}

TEST(MetricsTest, KindMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x_total");
  EXPECT_THROW(reg.gauge("x_total"), RuntimeError);
  EXPECT_THROW(reg.histogram("x_total"), RuntimeError);
}

// ---------- histograms ----------

TEST(MetricsTest, HistogramBucketsArePowersOfTwo) {
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 1u);
  EXPECT_EQ(Histogram::bucket_index(2), 2u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 3u);
  EXPECT_EQ(Histogram::bucket_index(1023), 10u);
  EXPECT_EQ(Histogram::bucket_index(1024), 11u);
  EXPECT_EQ(Histogram::bucket_index(UINT64_MAX), obs::kHistogramBuckets - 1);
  // bucket_bound(i) is the inclusive upper edge: bit_width(bound) == i.
  EXPECT_EQ(Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(Histogram::bucket_bound(2), 3u);
  EXPECT_EQ(Histogram::bucket_bound(10), 1023u);
  EXPECT_EQ(Histogram::bucket_bound(obs::kHistogramBuckets - 1), UINT64_MAX);
}

TEST(MetricsTest, HistogramSnapshotIsCumulativeWithInf) {
  MetricsRegistry reg;
  const Histogram h = reg.histogram("latency_ns", "latency");
  h.observe(0);
  h.observe(1);
  h.observe(3);
  h.observe(3);
  h.observe(100);
  const MetricsSnapshot snap = reg.snapshot();
  const obs::SeriesSnapshot* s = snap.series("latency_ns");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 5u);
  EXPECT_EQ(s->sum, 107u);
  // Buckets are (le, cumulative) with a final +Inf (le == UINT64_MAX)
  // carrying the total count.
  ASSERT_FALSE(s->buckets.empty());
  EXPECT_EQ(s->buckets.back().first, UINT64_MAX);
  EXPECT_EQ(s->buckets.back().second, 5u);
  uint64_t prev = 0;
  for (const auto& [le, cum] : s->buckets) {
    EXPECT_GE(cum, prev);  // cumulative counts never decrease
    prev = cum;
  }
  // le=3 must cover the 0,1,3,3 observations.
  for (const auto& [le, cum] : s->buckets) {
    if (le == 3) {
      EXPECT_EQ(cum, 4u);
    }
  }
}

// ---------- concurrency ----------

TEST(MetricsTest, ConcurrentUpdatesAreExact) {
  MetricsRegistry reg;
  const Counter c = reg.counter("ops_total");
  const Histogram h = reg.histogram("val");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(i % 1024);
      }
    });
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("ops_total"), kThreads * kPerThread);
  EXPECT_EQ(snap.series("val")->count, kThreads * kPerThread);
}

TEST(MetricsTest, SnapshotIsSafeWhileWritersRun) {
  MetricsRegistry reg;
  const Counter c = reg.counter("live_total");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) c.inc();
  });
  uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const uint64_t now = reg.snapshot().value("live_total");
    EXPECT_GE(now, last);  // monotone under concurrent increments
    last = now;
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

// ---------- collectors & sampler ----------

TEST(MetricsTest, CollectorsRefreshGaugesAtSnapshot) {
  MetricsRegistry reg;
  const Gauge g = reg.gauge("derived");
  int truth = 0;
  reg.add_collector([g, &truth] { g.set(truth); });
  truth = 41;
  EXPECT_EQ(static_cast<int64_t>(reg.snapshot().value("derived")), 41);
  truth = 17;
  EXPECT_EQ(static_cast<int64_t>(reg.snapshot().value("derived")), 17);
}

// ---------- exporters (golden) ----------

TEST(MetricsTest, PrometheusTextGolden) {
  MetricsRegistry reg;
  const Counter c = reg.counter("idxl_demo_total", "a demo counter", {{"kind", "x"}});
  c.inc(3);
  const Gauge g = reg.gauge("idxl_demo_depth", "a demo gauge");
  g.set(-2);
  const Histogram h = reg.histogram("idxl_demo_ns", "a demo histogram");
  h.observe(1);
  h.observe(3);

  const std::string text = reg.snapshot().prometheus_text();
  const std::string expected =
      "# HELP idxl_demo_total a demo counter\n"
      "# TYPE idxl_demo_total counter\n"
      "idxl_demo_total{kind=\"x\"} 3\n"
      "# HELP idxl_demo_depth a demo gauge\n"
      "# TYPE idxl_demo_depth gauge\n"
      "idxl_demo_depth -2\n"
      "# HELP idxl_demo_ns a demo histogram\n"
      "# TYPE idxl_demo_ns histogram\n"
      "idxl_demo_ns_bucket{le=\"1\"} 1\n"
      "idxl_demo_ns_bucket{le=\"3\"} 2\n"
      "idxl_demo_ns_bucket{le=\"+Inf\"} 2\n"
      "idxl_demo_ns_sum 4\n"
      "idxl_demo_ns_count 2\n";
  EXPECT_EQ(text, expected);
}

TEST(MetricsTest, PrometheusEscapesLabelValues) {
  MetricsRegistry reg;
  reg.counter("esc_total", "", {{"path", "a\"b\\c"}}).inc();
  const std::string text = reg.snapshot().prometheus_text();
  EXPECT_NE(text.find("esc_total{path=\"a\\\"b\\\\c\"} 1"), std::string::npos) << text;
}

TEST(MetricsTest, PrometheusEscapesNewlinesInLabelsAndHelp) {
  MetricsRegistry reg;
  reg.counter("nl_total", "line one\nline two", {{"msg", "a\nb"}}).inc();
  const std::string text = reg.snapshot().prometheus_text();
  // A raw newline inside a label value or HELP line would split the series
  // across exposition lines; both must come out as the two-char escape.
  EXPECT_NE(text.find("# HELP nl_total line one\\nline two"),
            std::string::npos) << text;
  EXPECT_NE(text.find("nl_total{msg=\"a\\nb\"} 1"), std::string::npos) << text;
}

TEST(MetricsTest, ClusterAggregationLabelsRanksAndRollsUp) {
  // Two ranks report the same counter family; one adds a histogram. The
  // aggregate must carry each rank's series under a rank label plus a
  // rank="all" roll-up per family, in one exposition.
  MetricsRegistry r0, r1;
  r0.counter("idxl_tasks_total", "tasks", {{"kind", "point"}}).inc(3);
  r1.counter("idxl_tasks_total", "tasks", {{"kind", "point"}}).inc(5);
  const Histogram h0 = r0.histogram("idxl_dur_ns", "durations");
  h0.observe(1);
  h0.observe(3);
  const Histogram h1 = r1.histogram("idxl_dur_ns", "durations");
  h1.observe(3);

  const MetricsSnapshot cluster = obs::aggregate_cluster(
      {{0, r0.snapshot()}, {1, r1.snapshot()}});
  EXPECT_EQ(cluster.value("idxl_tasks_total",
                          {{"kind", "point"}, {"rank", "0"}}), 3u);
  EXPECT_EQ(cluster.value("idxl_tasks_total",
                          {{"kind", "point"}, {"rank", "1"}}), 5u);
  EXPECT_EQ(cluster.value("idxl_tasks_total",
                          {{"kind", "point"}, {"rank", "all"}}), 8u);

  // Histogram roll-up: counts and sums add, cumulative buckets rebuild.
  const obs::SeriesSnapshot* all =
      cluster.series("idxl_dur_ns", {{"rank", "all"}});
  ASSERT_NE(all, nullptr);
  EXPECT_EQ(all->count, 3u);
  EXPECT_EQ(all->sum, 7u);
  ASSERT_FALSE(all->buckets.empty());
  EXPECT_EQ(all->buckets.back().first, UINT64_MAX);
  EXPECT_EQ(all->buckets.back().second, 3u);
  for (const auto& [le, cum] : all->buckets) {
    if (le == 3) {
      EXPECT_EQ(cum, 3u);  // 1, 3, 3 all le 3
    }
  }

  // The rendered exposition keeps Prometheus conformance: one HELP/TYPE
  // block per family, every series rank-labeled, histograms cumulative.
  const std::string text = cluster.prometheus_text();
  EXPECT_NE(text.find("# TYPE idxl_tasks_total counter"), std::string::npos);
  EXPECT_NE(text.find("idxl_tasks_total{kind=\"point\",rank=\"0\"} 3"),
            std::string::npos) << text;
  EXPECT_NE(text.find("idxl_tasks_total{kind=\"point\",rank=\"all\"} 8"),
            std::string::npos) << text;
  EXPECT_NE(text.find("idxl_dur_ns_bucket{rank=\"all\",le=\"+Inf\"} 3"),
            std::string::npos) << text;
  EXPECT_NE(text.find("idxl_dur_ns_sum{rank=\"all\"} 7"), std::string::npos);
  EXPECT_NE(text.find("idxl_dur_ns_count{rank=\"all\"} 3"), std::string::npos);
  // Exactly one HELP line per family even though both ranks declared it.
  EXPECT_EQ(text.find("# HELP idxl_tasks_total"),
            text.rfind("# HELP idxl_tasks_total"));
}

TEST(MetricsTest, ClusterAggregationPassesPreLabeledSeriesThrough) {
  // A series already carrying a rank label (a re-aggregated snapshot) must
  // pass through untouched and stay out of the roll-up.
  MetricsRegistry r0;
  r0.counter("x_total", "", {{"rank", "9"}}).inc(100);
  r0.counter("x_total", "").inc(1);
  const MetricsSnapshot cluster = obs::aggregate_cluster({{0, r0.snapshot()}});
  EXPECT_EQ(cluster.value("x_total", {{"rank", "9"}}), 100u);
  EXPECT_EQ(cluster.value("x_total", {{"rank", "0"}}), 1u);
  EXPECT_EQ(cluster.value("x_total", {{"rank", "all"}}), 1u);  // no 100
}

TEST(MetricsTest, JsonExportParsesAndRoundTrips) {
  MetricsRegistry reg;
  reg.counter("c_total", "help text", {{"k", "v"}}).inc(9);
  reg.histogram("h_ns").observe(5);
  JValue doc;
  ASSERT_TRUE(JsonParser(reg.snapshot().json()).parse(doc));
  const JValue* families = doc.get("metrics");
  ASSERT_NE(families, nullptr);
  ASSERT_EQ(families->kind, JValue::kArray);
  ASSERT_EQ(families->array.size(), 2u);
  const JValue& counter = families->array[0];
  EXPECT_EQ(counter.get("name")->string, "c_total");
  EXPECT_EQ(counter.get("help")->string, "help text");
  EXPECT_EQ(counter.get("type")->string, "counter");
  const JValue& series = counter.get("series")->array[0];
  EXPECT_EQ(series.get("value")->number, 9);
  EXPECT_EQ(series.get("labels")->get("k")->string, "v");
  const JValue& hist = families->array[1];
  EXPECT_EQ(hist.get("type")->string, "histogram");
  EXPECT_EQ(hist.get("series")->array[0].get("count")->number, 1);
  EXPECT_EQ(hist.get("series")->array[0].get("sum")->number, 5);
  ASSERT_NE(hist.get("series")->array[0].get("buckets"), nullptr);
}

// ---------- runtime integration ----------

struct Fixture {
  Runtime rt;
  IndexSpaceId is;
  FieldSpaceId fs;
  FieldId fv = 0;
  RegionId region;
  PartitionId blocks;

  explicit Fixture(int64_t n, int64_t pieces, RuntimeConfig cfg = {}) : rt(cfg) {
    auto& forest = rt.forest();
    is = forest.create_index_space(Domain::line(n));
    fs = forest.create_field_space();
    fv = forest.allocate_field(fs, sizeof(double), "v");
    region = forest.create_region(is, fs);
    blocks = partition_equal(forest, is, Rect::line(pieces));
  }
};

TEST(MetricsTest, OneSnapshotReachesEveryRuntimeCounter) {
  RuntimeConfig cfg;
  Fixture fx(64, 8, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  fx.rt.execute_index(IndexLauncher::over(Domain::line(8))
                          .with_task(noop)
                          .region(fx.region, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kReadWrite));
  fx.rt.wait_all();

  const MetricsSnapshot snap = fx.rt.metrics().snapshot();
  // Runtime counters, safety verdicts, cache and pool gauges, recorder
  // counters and task histograms all come out of the single snapshot.
  EXPECT_EQ(snap.value("idxl_point_tasks_total"), 8u);
  EXPECT_EQ(snap.value("idxl_tasks_completed_total"), 8u);
  EXPECT_EQ(snap.value("idxl_launches_total", {{"kind", "index"}}), 1u);
  EXPECT_EQ(snap.value("idxl_launch_safety_total", {{"outcome", "safe_static"}}), 1u);
  ASSERT_NE(snap.series("idxl_task_duration_ns"), nullptr);
  EXPECT_EQ(snap.series("idxl_task_duration_ns")->count, 8u);
  EXPECT_EQ(snap.series("idxl_task_queue_wait_ns")->count, 8u);
  EXPECT_GT(snap.value("idxl_pool_workers"), 0u);
  EXPECT_GT(snap.value("idxl_flight_recorder_events"), 0u);
  ASSERT_NE(snap.series("idxl_verdict_cache_misses"), nullptr);

  // stats() reads through the same snapshot: both views agree.
  const RuntimeStats stats = fx.rt.stats();
  EXPECT_EQ(stats.point_tasks, 8u);
  EXPECT_EQ(stats.tasks_completed, 8u);
  EXPECT_EQ(stats.index_launches, 1u);
  EXPECT_EQ(stats.launches_safe_static, 1u);
}

TEST(MetricsTest, StatsHammeredDuringLiveRunIsConsistent) {
  // The PR-3 era stats() read plain fields racily; now every counter is a
  // registry atomic, so concurrent readers must see monotone, coherent
  // values while tasks complete underneath them.
  Fixture fx(256, 64);
  const TaskFnId spin = fx.rt.register_task("spin", [](TaskContext&) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  std::atomic<bool> stop{false};
  uint64_t last_completed = 0;
  bool ordered = true;
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const RuntimeStats s = fx.rt.stats();
      if (s.tasks_completed < last_completed) ordered = false;
      if (s.tasks_completed > s.point_tasks) ordered = false;  // never >100%
      last_completed = s.tasks_completed;
    }
  });
  for (int it = 0; it < 20; ++it) {
    fx.rt.execute_index(IndexLauncher::over(Domain::line(64))
                            .with_task(spin)
                            .region(fx.region, fx.blocks,
                                    ProjectionFunctor::identity(1), {fx.fv},
                                    Privilege::kReadWrite));
  }
  fx.rt.wait_all();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(fx.rt.stats().tasks_completed, 20u * 64u);
}

}  // namespace
}  // namespace idxl
