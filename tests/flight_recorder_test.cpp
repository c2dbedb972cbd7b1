#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/watchdog.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "test_json.hpp"

namespace idxl {
namespace {

using obs::EventLog;
using obs::LifecycleDetail;
using obs::LifecycleEvent;
using obs::LogMode;
using FlightEvent = obs::Event;
using testjson::JsonParser;
using testjson::JValue;

FlightEvent ev(LifecycleEvent kind, uint64_t ts, uint64_t seq = FlightEvent::kNone) {
  FlightEvent e;
  e.kind = kind;
  e.ts_ns = ts;  // explicit (non-zero) so tests are deterministic
  e.seq = seq;
  return e;
}

TEST(FlightRecorderTest, RecordsEventsOldestFirst) {
  EventLog rec(LogMode::kBounded, 8);
  rec.record(ev(LifecycleEvent::kIssued, 10, 1));
  rec.record(ev(LifecycleEvent::kRunning, 20, 1));
  rec.record(ev(LifecycleEvent::kComplete, 30, 1));

  const std::vector<FlightEvent> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].kind, LifecycleEvent::kIssued);
  EXPECT_EQ(snap[1].kind, LifecycleEvent::kRunning);
  EXPECT_EQ(snap[2].kind, LifecycleEvent::kComplete);
  EXPECT_EQ(rec.recorded(), 3u);
  EXPECT_EQ(rec.overwritten(), 0u);
}

TEST(FlightRecorderTest, RingWrapsAroundKeepingTheNewest) {
  EventLog rec(LogMode::kBounded, 4);
  for (uint64_t i = 0; i < 10; ++i)
    rec.record(ev(LifecycleEvent::kIssued, i + 1, i));

  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.overwritten(), 6u);

  const std::vector<FlightEvent> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(snap[i].seq, 6 + i);
}

TEST(FlightRecorderTest, DisabledRecorderRecordsNothing) {
  EventLog rec(LogMode::kOff, 8);
  EXPECT_FALSE(rec.enabled());
  rec.record(ev(LifecycleEvent::kIssued, 1, 0));
  const FlightEvent pair[2] = {ev(LifecycleEvent::kRunning, 2, 0),
                               ev(LifecycleEvent::kComplete, 3, 0)};
  rec.record_batch(pair);
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.json(), "[]");
}

TEST(FlightRecorderTest, PerWorkerRingsPreserveEachThreadsOrder) {
  constexpr int kThreads = 4;
  constexpr uint64_t kEvents = 200;
  EventLog rec(LogMode::kBounded, kEvents);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (uint64_t i = 0; i < kEvents; ++i) {
        FlightEvent e = ev(LifecycleEvent::kIssued,
                           i * kThreads + static_cast<uint64_t>(t) + 1, i);
        e.launch = static_cast<uint64_t>(t);  // tag the recording thread
        rec.record(e);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(rec.recorded(), kThreads * kEvents);
  EXPECT_EQ(rec.overwritten(), 0u);

  // The merged snapshot is ts-ordered; within it, each thread's events must
  // appear in the order that thread recorded them (seq 0, 1, 2, ...).
  const std::vector<FlightEvent> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), kThreads * kEvents);
  uint64_t next_seq[kThreads] = {};
  for (const FlightEvent& e : snap) {
    ASSERT_LT(e.launch, static_cast<uint64_t>(kThreads));
    EXPECT_EQ(e.seq, next_seq[e.launch]++);
  }
}

TEST(FlightRecorderTest, TaskSpanReadsAsRunningThenComplete) {
  EventLog rec(LogMode::kBounded, 8);
  // One record per executed body: the task span.
  rec.record({.ts_ns = 100,
              .dur_ns = 25,
              .seq = 7,
              .launch = 3,
              .name = EventLog::kNameIssue,
              .kind = LifecycleEvent::kComplete,
              .cat = ProfCategory::kTask});

  const std::vector<FlightEvent> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].kind, LifecycleEvent::kRunning);
  EXPECT_EQ(snap[0].ts_ns, 100u);
  EXPECT_EQ(snap[1].kind, LifecycleEvent::kComplete);
  EXPECT_EQ(snap[1].ts_ns, 125u);
  for (const FlightEvent& e : snap) {
    EXPECT_EQ(e.seq, 7u);
    EXPECT_EQ(e.launch, 3u);
  }
  EXPECT_EQ(rec.recorded(), 2u);  // lifecycle events, not records
}

TEST(FlightRecorderTest, RecordBatchAppendsPreStampedEvents) {
  EventLog rec(LogMode::kBounded, 8);
  std::vector<FlightEvent> batch;
  for (uint64_t i = 0; i < 5; ++i)
    batch.push_back(ev(LifecycleEvent::kIssued, 100 + i, i));
  rec.record_batch(batch);

  const std::vector<FlightEvent> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(snap[i].seq, i);
    EXPECT_EQ(snap[i].ts_ns, 100 + i);
  }
}

TEST(FlightRecorderTest, TailReturnsTheMostRecentEventsOldestFirst) {
  EventLog rec(LogMode::kBounded, 16);
  for (uint64_t i = 0; i < 10; ++i)
    rec.record(ev(LifecycleEvent::kIssued, i + 1, i));

  const std::vector<FlightEvent> last = rec.tail(3);
  ASSERT_EQ(last.size(), 3u);
  EXPECT_EQ(last[0].seq, 7u);
  EXPECT_EQ(last[1].seq, 8u);
  EXPECT_EQ(last[2].seq, 9u);
  EXPECT_EQ(rec.tail(100).size(), 10u);  // clamped to what exists
}

TEST(FlightRecorderTest, ResetDropsAllEvents) {
  EventLog rec(LogMode::kBounded, 8);
  rec.record(ev(LifecycleEvent::kIssued, 1, 0));
  rec.reset();
  EXPECT_TRUE(rec.snapshot().empty());
  EXPECT_EQ(rec.recorded(), 1u);  // monotone: a reset drops events, not counts
  rec.record(ev(LifecycleEvent::kIssued, 2, 1));
  ASSERT_EQ(rec.snapshot().size(), 1u);
  EXPECT_EQ(rec.snapshot()[0].seq, 1u);
}

TEST(FlightRecorderTest, JsonIsWellFormedAndCarriesEveryField) {
  EventLog rec(LogMode::kBounded, 8);
  FlightEvent e = ev(LifecycleEvent::kReady, 42, 3);
  e.launch = 9;
  e.edge = 2;
  const int64_t coord[2] = {1, 5};
  e.set_point(coord, 2);
  rec.record(e);
  FlightEvent f = ev(LifecycleEvent::kAnalyzed, 50);
  f.detail = LifecycleDetail::kSafeStatic;
  rec.record(f);

  JValue root;
  ASSERT_TRUE(JsonParser(rec.json()).parse(root));
  ASSERT_EQ(root.kind, JValue::kArray);
  ASSERT_EQ(root.array.size(), 2u);

  const JValue& ready = root.array[0];
  EXPECT_EQ(ready.get("event")->string, "ready");
  EXPECT_EQ(ready.get("ts_ns")->number, 42);
  EXPECT_EQ(ready.get("seq")->number, 3);
  EXPECT_EQ(ready.get("launch")->number, 9);
  EXPECT_EQ(ready.get("edge")->number, 2);
  ASSERT_NE(ready.get("point"), nullptr);
  ASSERT_EQ(ready.get("point")->array.size(), 2u);
  EXPECT_EQ(ready.get("point")->array[1].number, 5);

  const JValue& analyzed = root.array[1];
  EXPECT_EQ(analyzed.get("event")->string, "analyzed");
  EXPECT_EQ(analyzed.get("detail")->string, "safe-static");
  EXPECT_EQ(analyzed.get("seq"), nullptr);   // kNone fields are omitted
  EXPECT_EQ(analyzed.get("point"), nullptr); // dim == 0
}

// ---------------------------------------------------------------------------
// Runtime integration: the recorder is on by default and sees the whole
// task lifecycle, with launch ids shared with the Chrome trace.
// ---------------------------------------------------------------------------

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

bool has_event(const std::vector<FlightEvent>& events, LifecycleEvent kind) {
  for (const FlightEvent& e : events)
    if (e.kind == kind) return true;
  return false;
}

TEST(FlightRecorderTest, RuntimeRecordsTheFullTaskLifecycle) {
  Fixture fx(32, 8);
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  const TaskFnId scale = fx.rt.register_task("scale", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, acc.read(p) * 2.0); });
  });
  auto launch = [&](TaskFnId fn, Privilege priv) {
    fx.rt.execute_index(IndexLauncher::over(Domain::line(8))
                            .with_task(fn)
                            .region(fx.region, fx.blocks,
                                    ProjectionFunctor::identity(1), {fx.fv},
                                    priv));
  };
  launch(fill, Privilege::kWrite);
  launch(scale, Privilege::kReadWrite);
  fx.rt.wait_all();

  ASSERT_TRUE(fx.rt.flight_recorder().enabled());
  const std::vector<FlightEvent> events = fx.rt.flight_recorder().snapshot();

  // Launch-level records: issue, verdict, expansion — tagged with a launch
  // id but no task seq.
  EXPECT_TRUE(has_event(events, LifecycleEvent::kFence));
  bool saw_analyzed = false, saw_expanded = false;
  for (const FlightEvent& e : events) {
    if (e.kind == LifecycleEvent::kAnalyzed) {
      saw_analyzed = true;
      EXPECT_EQ(e.seq, FlightEvent::kNone);
      EXPECT_NE(e.launch, FlightEvent::kNone);
      EXPECT_EQ(e.detail, LifecycleDetail::kSafeStatic);
    }
    if (e.kind == LifecycleEvent::kExpanded) saw_expanded = true;
  }
  EXPECT_TRUE(saw_analyzed);
  EXPECT_TRUE(saw_expanded);

  // Task-level records: every point task moves issued -> ready -> running ->
  // complete, in that order, and keeps its launch id end to end.
  struct Seen {
    uint64_t mask = 0;  // bit per lifecycle stage, set in pipeline order
    uint64_t launch = FlightEvent::kNone;
  };
  std::map<uint64_t, Seen> tasks;
  auto stage_bit = [](LifecycleEvent k) -> uint64_t {
    switch (k) {
      case LifecycleEvent::kIssued: return 1;
      case LifecycleEvent::kReady: return 2;
      case LifecycleEvent::kRunning: return 4;
      case LifecycleEvent::kComplete: return 8;
      default: return 0;
    }
  };
  for (const FlightEvent& e : events) {
    const uint64_t bit = stage_bit(e.kind);
    if (bit == 0 || e.seq == FlightEvent::kNone) continue;
    Seen& s = tasks[e.seq];
    // Each stage must arrive after every earlier stage (ts-sorted snapshot).
    EXPECT_EQ(s.mask, bit - 1) << "task " << e.seq << " out of order at "
                               << obs::lifecycle_event_name(e.kind);
    s.mask |= bit;
    if (s.launch == FlightEvent::kNone) s.launch = e.launch;
    EXPECT_EQ(e.launch, s.launch) << "launch id changed mid-lifecycle";
  }
  ASSERT_EQ(tasks.size(), 16u);  // 2 launches x 8 points
  for (const auto& [seq, s] : tasks) EXPECT_EQ(s.mask, 15u) << "task " << seq;

  // A task whose dependence is outstanding when it is issued gets a kReady
  // event naming the edge that unblocked it. Gate the predecessor so the
  // successor is provably blocked at issue time.
  std::atomic<bool> release{false};
  const TaskFnId gate = fx.rt.register_task("gate", [&](TaskContext&) {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  const TaskFnId after = fx.rt.register_task("after", [](TaskContext&) {});
  fx.rt.execute(TaskLauncher::for_task(gate).region(fx.region, {fx.fv},
                                                    Privilege::kWrite));
  fx.rt.execute(TaskLauncher::for_task(after).region(fx.region, {fx.fv},
                                                     Privilege::kWrite));
  release.store(true, std::memory_order_release);
  fx.rt.wait_all();

  // The two new tasks are the ones with seqs the index launches did not use.
  const std::vector<FlightEvent> all = fx.rt.flight_recorder().snapshot();
  uint64_t gate_seq = FlightEvent::kNone;
  for (const FlightEvent& e : all)
    if (e.kind == LifecycleEvent::kIssued && e.seq != FlightEvent::kNone &&
        !tasks.count(e.seq)) {
      gate_seq = e.seq;  // first new issue is the gate task
      break;
    }
  ASSERT_NE(gate_seq, FlightEvent::kNone);
  bool saw_edge = false;
  for (const FlightEvent& e : all)
    if (e.kind == LifecycleEvent::kReady && e.edge == gate_seq) saw_edge = true;
  EXPECT_TRUE(saw_edge) << "successor's kReady never named the gate edge";
}

TEST(FlightRecorderTest, ConfigCanDisableTheRecorder) {
  RuntimeConfig cfg;
  cfg.enable_flight_recorder = false;
  Fixture fx(8, 1, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  fx.rt.execute(TaskLauncher::for_task(noop).region(fx.region, {fx.fv},
                                                    Privilege::kWrite));
  fx.rt.wait_all();
  EXPECT_FALSE(fx.rt.flight_recorder().enabled());
  EXPECT_TRUE(fx.rt.flight_recorder().snapshot().empty());
}

TEST(FlightRecorderTest, EnvOverridesDisableRecorderAndSizeRing) {
  ::setenv("IDXL_FLIGHT_RECORDER", "0", 1);
  {
    Runtime rt;
    EXPECT_FALSE(rt.flight_recorder().enabled());
  }
  ::unsetenv("IDXL_FLIGHT_RECORDER");

  ::setenv("IDXL_FLIGHT_CAPACITY", "4", 1);
  {
    Runtime rt;
    EXPECT_TRUE(rt.flight_recorder().enabled());
    EXPECT_EQ(rt.flight_recorder().capacity(), 4u);
  }
  ::unsetenv("IDXL_FLIGHT_CAPACITY");
}

TEST(FlightRecorderTest, MalformedEnvOverridesAreRejected) {
  // A sign, trailing text, zero or overflow used to wrap (-1 -> 2^64-1, so
  // the first record threw from vector::reserve) or read silently as 0.
  const std::pair<const char*, const char*> cases[] = {
      {"IDXL_FLIGHT_CAPACITY", "-1"},        {"IDXL_FLIGHT_CAPACITY", "abc"},
      {"IDXL_FLIGHT_CAPACITY", "0"},         {"IDXL_FLIGHT_CAPACITY", "12x"},
      {"IDXL_FLIGHT_CAPACITY", "4294967296"}, {"IDXL_WATCHDOG_PERIOD_MS", "-1"},
      {"IDXL_WATCHDOG_PERIOD_MS", "abc"},    {"IDXL_WATCHDOG_WINDOW_MS", "-1"},
      {"IDXL_WATCHDOG_WINDOW_MS", "0"},
  };
  for (const auto& [var, value] : cases) {
    ::setenv(var, value, 1);
    try {
      Runtime rt;
      ADD_FAILURE() << var << "=" << value << " was accepted";
    } catch (const RuntimeError& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos) << e.what();
    }
    ::unsetenv(var);
  }

  // The largest accepted capacity costs nothing up front: lanes grow to it
  // as records arrive, so no accepted value can make recording throw.
  ::setenv("IDXL_FLIGHT_CAPACITY", "4294967295", 1);
  {
    Fixture fx(8, 1);
    EXPECT_EQ(fx.rt.flight_recorder().capacity(), 4294967295u);
    const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
    fx.rt.execute(TaskLauncher::for_task(noop).region(fx.region, {fx.fv},
                                                      Privilege::kWrite));
    fx.rt.wait_all();
    EXPECT_GT(fx.rt.flight_recorder().recorded(), 0u);
  }
  ::unsetenv("IDXL_FLIGHT_CAPACITY");
}

// ---------------------------------------------------------------------------
// Stall watchdog: wedge a task and check the report names the blocked task,
// the waits-for edge, and the recent lifecycle events.
// ---------------------------------------------------------------------------

TEST(FlightRecorderTest, WatchdogNamesBlockedTaskEdgeAndRecentEvents) {
  RuntimeConfig cfg;
  cfg.enable_watchdog = true;
  cfg.watchdog.check_period_ms = 5;
  cfg.watchdog.stall_window_ms = 25;
  cfg.watchdog.dump_path = ::testing::TempDir() + "idxl_stall_report.txt";
  Fixture fx(8, 1, cfg);
  ASSERT_NE(fx.rt.watchdog(), nullptr);

  std::mutex mu;
  std::condition_variable cv;
  bool have_report = false;
  obs::StallReport report;
  fx.rt.watchdog()->set_on_stall([&](const obs::StallReport& r) {
    std::lock_guard<std::mutex> lock(mu);
    report = r;
    have_report = true;
    cv.notify_all();
  });

  std::atomic<bool> release{false};
  const TaskFnId wedge = fx.rt.register_task("wedge", [&](TaskContext&) {
    while (!release.load(std::memory_order_acquire))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  });
  const TaskFnId victim = fx.rt.register_task("victim", [](TaskContext&) {});

  // wedge writes the region; victim writes it too -> victim waits for wedge.
  fx.rt.execute(TaskLauncher::for_task(wedge).region(fx.region, {fx.fv},
                                                     Privilege::kWrite));
  fx.rt.execute(TaskLauncher::for_task(victim).region(fx.region, {fx.fv},
                                                      Privilege::kWrite));

  {
    std::unique_lock<std::mutex> lock(mu);
    const bool fired = cv.wait_for(lock, std::chrono::seconds(10),
                                   [&] { return have_report; });
    ASSERT_TRUE(fired) << "watchdog never fired";
  }
  release.store(true, std::memory_order_release);
  fx.rt.wait_all();

  EXPECT_GE(fx.rt.watchdog()->stalls_detected(), 1u);
  EXPECT_EQ(report.completed, 0u);
  EXPECT_EQ(report.pending, 2u);

  // The waits-for graph must name the victim, blocked on the wedge's seq.
  const obs::BlockedTask* wedged = nullptr;
  const obs::BlockedTask* blocked = nullptr;
  for (const auto& t : report.blocked) {
    if (t.label.find("wedge") != std::string::npos) wedged = &t;
    if (t.label.find("victim") != std::string::npos) blocked = &t;
  }
  ASSERT_NE(wedged, nullptr);
  ASSERT_NE(blocked, nullptr);
  EXPECT_TRUE(wedged->waits_for.empty());  // it runs; it waits on nothing
  ASSERT_EQ(blocked->waits_for.size(), 1u);
  EXPECT_EQ(blocked->waits_for[0], wedged->seq);

  // The flight-recorder tail rode along and shows how we got here.
  ASSERT_FALSE(report.recent.empty());
  EXPECT_TRUE(has_event(report.recent, LifecycleEvent::kIssued));

  // The stall itself was recorded as a lifecycle event, and the report text
  // landed at the configured dump path with the metrics snapshot attached.
  EXPECT_TRUE(has_event(fx.rt.flight_recorder().snapshot(),
                        LifecycleEvent::kStall));
  std::FILE* f = std::fopen(cfg.watchdog.dump_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 16, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  EXPECT_NE(text.find("stall report"), std::string::npos);
  EXPECT_NE(text.find("waits for"), std::string::npos);
  EXPECT_NE(text.find("idxl_point_tasks_total"), std::string::npos);
  std::remove(cfg.watchdog.dump_path.c_str());
}

TEST(FlightRecorderTest, WatchdogStaysQuietWhenWorkCompletes) {
  RuntimeConfig cfg;
  cfg.enable_watchdog = true;
  cfg.watchdog.check_period_ms = 5;
  cfg.watchdog.stall_window_ms = 50;
  Fixture fx(32, 8, cfg);
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, 1.0); });
  });
  for (int rep = 0; rep < 4; ++rep) {
    fx.rt.execute_index(IndexLauncher::over(Domain::line(8))
                            .with_task(fill)
                            .region(fx.region, fx.blocks,
                                    ProjectionFunctor::identity(1), {fx.fv},
                                    Privilege::kWrite));
    fx.rt.wait_all();
  }
  EXPECT_EQ(fx.rt.watchdog()->stalls_detected(), 0u);
}

// ---------------------------------------------------------------------------
// The one event log: spans and lifecycle events are views of one record
// stream, bounded or captured.
// ---------------------------------------------------------------------------

TEST(EventLogTest, CapturedTaskRecordIsOneSpanAndOneRunningCompletePair) {
  RuntimeConfig cfg;
  cfg.enable_profiling = true;
  cfg.workers = 2;
  Fixture fx(32, 8, cfg);
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, 1.0); });
  });
  for (int rep = 0; rep < 2; ++rep)
    fx.rt.execute_index(IndexLauncher::over(Domain::line(8))
                            .with_task(fill)
                            .region(fx.region, fx.blocks,
                                    ProjectionFunctor::identity(1), {fx.fv},
                                    Privilege::kReadWrite));
  fx.rt.execute(TaskLauncher::for_task(fill).region(fx.region, {fx.fv},
                                                    Privilege::kReadWrite));
  fx.rt.wait_all();
  const uint64_t executed = fx.rt.stats().tasks_completed;
  ASSERT_EQ(executed, 17u);

  // Chrome view: exactly one task span per executed body.
  JValue trace;
  ASSERT_TRUE(JsonParser(fx.rt.profiler().chrome_trace_json()).parse(trace));
  struct Span {
    double ts_us = 0, dur_us = 0;
    uint64_t launch = 0;
  };
  std::map<uint64_t, Span> spans;
  for (const JValue& e : trace.get("traceEvents")->array) {
    if (e.get("ph")->string != "X" || e.get("cat")->string != "task") continue;
    const JValue* args = e.get("args");
    const auto seq = static_cast<uint64_t>(args->get("seq")->number);
    EXPECT_EQ(spans.count(seq), 0u) << "two task spans for seq " << seq;
    spans[seq] = {e.get("ts")->number, e.get("dur")->number,
                  static_cast<uint64_t>(args->get("launch")->number)};
  }
  ASSERT_EQ(spans.size(), executed);

  // Flight view: the same record read as running at the span's start and
  // complete at its end, with the same (launch, seq).
  JValue flight;
  ASSERT_TRUE(JsonParser(fx.rt.flight_recorder().json()).parse(flight));
  std::map<uint64_t, int> running, complete;
  for (const JValue& e : flight.array) {
    const std::string& kind = e.get("event")->string;
    if (kind != "running" && kind != "complete") continue;
    const auto seq = static_cast<uint64_t>(e.get("seq")->number);
    ASSERT_EQ(spans.count(seq), 1u) << kind << " for a seq with no task span";
    const Span& sp = spans[seq];
    EXPECT_EQ(static_cast<uint64_t>(e.get("launch")->number), sp.launch);
    const double ts_us = e.get("ts_ns")->number / 1e3;
    // Chrome timestamps are printed to the nanosecond (%.3f us).
    EXPECT_NEAR(ts_us, kind == "running" ? sp.ts_us : sp.ts_us + sp.dur_us, 0.002) << kind;
    ++(kind == "running" ? running : complete)[seq];
  }
  for (const auto& [seq, sp] : spans) {
    EXPECT_EQ(running[seq], 1) << "seq " << seq;
    EXPECT_EQ(complete[seq], 1) << "seq " << seq;
  }
}

TEST(EventLogTest, BoundedLanesHoldAtMostCapacityWhileCaptureKeepsAll) {
  constexpr std::size_t kCap = 16;
  constexpr uint64_t kPerThread = 5 * kCap;
  constexpr int kThreads = 3;
  for (const LogMode mode : {LogMode::kBounded, LogMode::kCapture}) {
    EventLog log(mode, kCap);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&log, t] {
        for (uint64_t i = 0; i < kPerThread; ++i) {
          FlightEvent e = ev(LifecycleEvent::kIssued, i + 1, i);
          e.launch = static_cast<uint64_t>(t);  // tag the recording lane
          log.record(e);
        }
      });
    for (std::thread& t : threads) t.join();

    const bool bounded = mode == LogMode::kBounded;
    const uint64_t kept = bounded ? kCap : kPerThread;
    std::map<uint64_t, uint64_t> per_lane;
    for (const FlightEvent& e : log.snapshot()) {
      ++per_lane[e.launch];
      EXPECT_GE(e.seq, kPerThread - kept) << "a lane kept an overwritten record";
    }
    ASSERT_EQ(per_lane.size(), static_cast<std::size_t>(kThreads));
    for (const auto& [lane, n] : per_lane) EXPECT_EQ(n, kept) << "lane " << lane;
    EXPECT_EQ(log.recorded(), kThreads * kPerThread);
    EXPECT_EQ(log.overwritten(), kThreads * (kPerThread - kept));
  }
}

TEST(EventLogTest, TailIsSafeWhileWorkersRecordCaptureSpans) {
  RuntimeConfig cfg;
  cfg.enable_profiling = true;
  cfg.workers = 3;
  Fixture fx(64, 16, cfg);
  const TaskFnId touch = fx.rt.register_task("touch", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, acc.read(p) + 1); });
  });

  // The watchdog's read: tail() mid-run, from another thread.
  std::atomic<bool> done{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<bool> unsorted{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<FlightEvent> tail = fx.rt.flight_recorder().tail(32);
      for (std::size_t i = 1; i < tail.size(); ++i)
        if (tail[i].ts_ns < tail[i - 1].ts_ns) unsorted.store(true);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  constexpr int kLaunches = 40;
  for (int i = 0; i < kLaunches; ++i)
    fx.rt.execute_index(IndexLauncher::over(Domain::line(16))
                            .with_task(touch)
                            .region(fx.region, fx.blocks,
                                    ProjectionFunctor::identity(1), {fx.fv},
                                    Privilege::kReadWrite));
  fx.rt.wait_all();
  while (reads.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_FALSE(unsorted.load());
  EXPECT_EQ(fx.rt.flight_recorder().tail(32).size(), 32u);
  uint64_t task_spans = 0;
  for (const ProfileEvent& e : fx.rt.profiler().events())
    task_spans += e.cat == ProfCategory::kTask ? 1 : 0;
  EXPECT_EQ(task_spans, kLaunches * 16u);
}

}  // namespace
}  // namespace idxl
