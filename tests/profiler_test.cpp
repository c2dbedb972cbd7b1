#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/event_log.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "runtime/serialize.hpp"
#include "test_json.hpp"

namespace idxl {
namespace {

using obs::EventLog;
using obs::LogMode;
using Scope = EventLog::Scope;
using testjson::JsonParser;
using testjson::JValue;

void spin_for(std::chrono::microseconds us) {
  const auto until = std::chrono::steady_clock::now() + us;
  while (std::chrono::steady_clock::now() < until) {
  }
}

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

// ---------- profiler core ----------

TEST(ProfilerTest, SpanNestingIsContained) {
  EventLog prof(LogMode::kCapture);
  const uint32_t outer_name = prof.intern("outer");
  const uint32_t inner_name = prof.intern("inner");
  {
    Scope outer(&prof, ProfCategory::kPhase, outer_name);
    spin_for(std::chrono::microseconds(200));
    {
      Scope inner(&prof, ProfCategory::kPhase, inner_name);
      spin_for(std::chrono::microseconds(200));
    }
    spin_for(std::chrono::microseconds(200));
  }
  const auto events = prof.events();
  ASSERT_EQ(events.size(), 2u);
  const ProfileEvent* outer_ev = nullptr;
  const ProfileEvent* inner_ev = nullptr;
  for (const ProfileEvent& ev : events) {
    if (ev.name == outer_name) outer_ev = &ev;
    if (ev.name == inner_name) inner_ev = &ev;
  }
  ASSERT_NE(outer_ev, nullptr);
  ASSERT_NE(inner_ev, nullptr);
  // The inner span nests strictly inside the outer one.
  EXPECT_GE(inner_ev->start_ns, outer_ev->start_ns);
  EXPECT_LE(inner_ev->start_ns + inner_ev->dur_ns,
            outer_ev->start_ns + outer_ev->dur_ns);
  EXPECT_LT(inner_ev->dur_ns, outer_ev->dur_ns);
  // Both recorded from this (non-worker) thread.
  EXPECT_EQ(outer_ev->worker, -1);
  EXPECT_EQ(outer_ev->tid, inner_ev->tid);
}

TEST(ProfilerTest, ScopeCloseEndsSpanEarlyAndOnlyOnce) {
  EventLog prof(LogMode::kCapture);
  const uint32_t name = prof.intern("early");
  {
    Scope s(&prof, ProfCategory::kPhase, name);
    s.close();
    spin_for(std::chrono::microseconds(500));
    s.close();  // second close is a no-op
  }
  const auto events = prof.events();
  ASSERT_EQ(events.size(), 1u);
  // The span ended at close(), not at scope exit after the 500us spin.
  EXPECT_LT(events[0].dur_ns, 400'000u);
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing) {
  // Off records nothing; bounded keeps lifecycle records but no span view.
  for (const LogMode mode : {LogMode::kOff, LogMode::kBounded}) {
    EventLog prof(mode);
    {
      Scope s(&prof, ProfCategory::kPhase, 0);
      Scope p = prof.phase("setup");
    }
    prof.record({.ts_ns = 1,
                 .dur_ns = 99,
                 .seq = 1,
                 .name = 0,
                 .kind = obs::LifecycleEvent::kComplete,
                 .cat = ProfCategory::kTask});
    const uint64_t deps[] = {0};
    prof.record_edges(1, deps);
    EXPECT_EQ(prof.event_count(), 0u);
    EXPECT_TRUE(prof.events().empty());
    EXPECT_TRUE(prof.task_samples().empty());
    EXPECT_EQ(prof.snapshot().size(), mode == LogMode::kOff ? 0u : 2u);
  }
}

TEST(ProfilerTest, RuntimeWithProfilingDisabledStaysEmpty) {
  Fixture fx(32, 4);  // default config: enable_profiling = false
  ASSERT_FALSE(fx.rt.profiler().capturing());
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  fx.rt.execute_index(IndexLauncher::over(Domain::line(4))
                          .with_task(noop)
                          .region(fx.region, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kReadWrite));
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.profiler().event_count(), 0u);
}

// ---------- critical path ----------

TEST(ProfilerTest, CriticalPathOfDiamondIsLongestChain) {
  // diamond: 0 (10ns) fans out to 1 (20ns) and 2 (30ns), which join at
  // 3 (5ns); the critical path goes through the slower middle task.
  const std::vector<TaskSample> samples = {
      {0, 10, {}},
      {1, 20, {0}},
      {2, 30, {0}},
      {3, 5, {1, 2}},
  };
  const CriticalPathReport r = critical_path(samples);
  EXPECT_EQ(r.total_task_ns, 65u);
  EXPECT_EQ(r.critical_path_ns, 10u + 30u + 5u);
  ASSERT_EQ(r.path.size(), 3u);
  EXPECT_EQ(r.path[0], 0u);
  EXPECT_EQ(r.path[1], 2u);
  EXPECT_EQ(r.path[2], 3u);
  EXPECT_NEAR(r.max_speedup(), 65.0 / 45.0, 1e-12);
}

TEST(ProfilerTest, CriticalPathOfIndependentTasksIsTheLongestTask) {
  const std::vector<TaskSample> samples = {{0, 7, {}}, {1, 11, {}}, {2, 3, {}}};
  const CriticalPathReport r = critical_path(samples);
  EXPECT_EQ(r.total_task_ns, 21u);
  EXPECT_EQ(r.critical_path_ns, 11u);
  ASSERT_EQ(r.path.size(), 1u);
  EXPECT_EQ(r.path[0], 1u);
}

TEST(ProfilerTest, RuntimeRecordsDependenceChainAsCriticalPath) {
  RuntimeConfig cfg;
  cfg.enable_profiling = true;
  cfg.workers = 2;
  Fixture fx(16, 1, cfg);
  // Pause the pool until every launch has been issued: a predecessor that
  // completes before its successor issues is (correctly) dropped from the
  // dependence edges, which would break the chain nondeterministically.
  // Paused workers enqueue without executing — a deterministic gate.
  fx.rt.pool().pause();
  const TaskFnId spin = fx.rt.register_task(
      "spin", [](TaskContext&) { spin_for(std::chrono::microseconds(100)); });
  // Three read-write launches over the same region: a 3-task chain.
  for (int i = 0; i < 3; ++i)
    fx.rt.execute(TaskLauncher::for_task(spin).region(fx.region, {fx.fv},
                                                      Privilege::kReadWrite));
  fx.rt.pool().resume();
  fx.rt.wait_all();

  const CriticalPathReport r = fx.rt.profiler().critical_path();
  EXPECT_EQ(r.path.size(), 3u);
  EXPECT_GT(r.critical_path_ns, 0u);
  EXPECT_EQ(r.total_task_ns, r.critical_path_ns);  // a pure chain
}

// ---------- chrome trace export ----------

TEST(ProfilerTest, ChromeTraceIsValidJsonWithMonotoneTimestampsPerLane) {
  RuntimeConfig cfg;
  cfg.enable_profiling = true;
  Fixture fx(64, 4, cfg);
  auto& forest = fx.rt.forest();
  const PartitionId halos = partition_halo(forest, fx.is, fx.blocks, 1);
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  const TaskFnId smooth = fx.rt.register_task("smooth", [](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    (void)in.read(ctx.region(0).domain().bounds().lo);
  });
  for (int it = 0; it < 3; ++it) {
    fx.rt.execute_index(IndexLauncher::over(Domain::line(4))
                            .with_task(fill)
                            .region(fx.region, fx.blocks,
                                    ProjectionFunctor::identity(1), {fx.fv},
                                    Privilege::kReadWrite));
    fx.rt.execute_index(IndexLauncher::over(Domain::line(4))
                            .with_task(smooth)
                            .region(fx.region, halos,
                                    ProjectionFunctor::identity(1), {fx.fv},
                                    Privilege::kRead));
  }
  fx.rt.wait_all();

  // Round-trip through a file, as the profile_stencil example does.
  const std::string path =
      testing::TempDir() + "/profiler_test.trace.json";
  fx.rt.profiler().write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string json = ss.str();
  EXPECT_EQ(json, fx.rt.profiler().chrome_trace_json());

  JValue root;
  ASSERT_TRUE(JsonParser(json).parse(root)) << json.substr(0, 400);
  ASSERT_EQ(root.kind, JValue::kObject);
  const JValue* events = root.get("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JValue::kArray);
  ASSERT_FALSE(events->array.empty());

  std::unordered_map<int, double> last_ts;  // per-lane monotonicity
  std::unordered_map<std::string, int> cat_count;
  for (const JValue& ev : events->array) {
    ASSERT_EQ(ev.kind, JValue::kObject);
    const JValue* ph = ev.get("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") continue;  // thread-name metadata
    ASSERT_EQ(ph->string, "X");
    const JValue* tid = ev.get("tid");
    const JValue* ts = ev.get("ts");
    const JValue* dur = ev.get("dur");
    const JValue* cat = ev.get("cat");
    const JValue* name = ev.get("name");
    ASSERT_NE(tid, nullptr);
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(dur, nullptr);
    ASSERT_NE(cat, nullptr);
    ASSERT_NE(name, nullptr);
    EXPECT_GE(dur->number, 0.0);
    const int lane = static_cast<int>(tid->number);
    const auto it = last_ts.find(lane);
    if (it != last_ts.end()) {
      EXPECT_GE(ts->number, it->second) << "lane " << lane;
    }
    last_ts[lane] = ts->number;
    ++cat_count[cat->string];
  }
  // The instrumented pipeline stages all show up.
  EXPECT_GT(cat_count["task"], 0);
  EXPECT_GT(cat_count["dependence"], 0);
  EXPECT_GT(cat_count["safety"], 0);
  EXPECT_GT(cat_count["issue"], 0);
  EXPECT_EQ(cat_count["task"], 3 * 2 * 4);  // 3 iterations x 2 launches x 4 pts

  std::remove(path.c_str());
}

TEST(ProfilerTest, TaskEventsCarryWorkerAndQueueWait) {
  RuntimeConfig cfg;
  cfg.enable_profiling = true;
  cfg.workers = 2;
  Fixture fx(32, 4, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  fx.rt.execute_index(IndexLauncher::over(Domain::line(4))
                          .with_task(noop)
                          .region(fx.region, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kWrite));
  fx.rt.wait_all();
  int task_events = 0;
  for (const ProfileEvent& ev : fx.rt.profiler().events()) {
    if (ev.cat != ProfCategory::kTask) continue;
    ++task_events;
    EXPECT_GE(ev.worker, 0);
    EXPECT_LT(ev.worker, 2);
    EXPECT_NE(ev.seq, ProfileEvent::kNoSeq);
  }
  EXPECT_EQ(task_events, 4);
}

TEST(ProfilerTest, ResetDropsEvents) {
  EventLog prof(LogMode::kCapture);
  { Scope s = prof.phase("p"); }
  EXPECT_EQ(prof.event_count(), 1u);
  prof.reset();
  EXPECT_EQ(prof.event_count(), 0u);
  { Scope s = prof.phase("q"); }
  EXPECT_EQ(prof.event_count(), 1u);  // buffers still usable after reset
}

// ---------- builder API equivalence ----------

TEST(BuilderTest, IndexLauncherBuilderMatchesAggregateBytes) {
  struct Args {
    double dt;
  };
  IndexLauncher aggregate;
  aggregate.task = 7;
  aggregate.domain = Domain::line(16);
  aggregate.args = {{RegionId{2}, PartitionId{3}, ProjectionFunctor::modular1d(3, 16),
                     {0, 1}, Privilege::kReadWrite, ReductionOp::kNone},
                    {RegionId{4}, PartitionId{5}, ProjectionFunctor::identity(1),
                     {2}, Privilege::kReduce, ReductionOp::kSum}};
  aggregate.scalar_args = ArgBuffer::of(Args{0.25});
  aggregate.assume_verified = true;
  aggregate.result_redop = ReductionOp::kMax;

  const IndexLauncher built =
      IndexLauncher::over(Domain::line(16))
          .with_task(7)
          .region(RegionId{2}, PartitionId{3}, ProjectionFunctor::modular1d(3, 16),
                  {0, 1}, Privilege::kReadWrite)
          .region(RegionId{4}, PartitionId{5}, ProjectionFunctor::identity(1),
                  {2}, Privilege::kReduce, ReductionOp::kSum)
          .scalars(Args{0.25})
          .reduce(ReductionOp::kMax)
          .verified();

  // The serialized descriptor is the launcher's full identity (it is what
  // DCR hashes for replication checks): byte equality ⇒ the two forms are
  // interchangeable everywhere.
  EXPECT_EQ(serialize_launcher(aggregate), serialize_launcher(built));
}

TEST(BuilderTest, TaskLauncherBuilderMatchesAggregate) {
  TaskLauncher aggregate;
  aggregate.task = 3;
  aggregate.args = {{RegionId{1}, {0, 2}, Privilege::kWrite, ReductionOp::kNone}};
  aggregate.scalar_args = ArgBuffer::of(int64_t{42});
  aggregate.point = Point::p1(5);
  aggregate.launch_domain = Domain::line(8);
  aggregate.result_redop = ReductionOp::kSum;

  const TaskLauncher built =
      TaskLauncher::for_task(3)
          .region(RegionId{1}, {0, 2}, Privilege::kWrite)
          .scalars(int64_t{42})
          .at(Point::p1(5), Domain::line(8))
          .reduce(ReductionOp::kSum);

  EXPECT_EQ(built.task, aggregate.task);
  ASSERT_EQ(built.args.size(), aggregate.args.size());
  EXPECT_EQ(built.args[0].region, aggregate.args[0].region);
  EXPECT_EQ(built.args[0].fields, aggregate.args[0].fields);
  EXPECT_EQ(built.args[0].privilege, aggregate.args[0].privilege);
  EXPECT_EQ(built.args[0].redop, aggregate.args[0].redop);
  EXPECT_EQ(built.scalar_args.raw(), aggregate.scalar_args.raw());
  EXPECT_EQ(built.point, aggregate.point);
  EXPECT_EQ(built.launch_domain.volume(), aggregate.launch_domain.volume());
  EXPECT_EQ(built.result_redop, aggregate.result_redop);
}

TEST(BuilderTest, BuilderAndAggregateLaunchesBehaveIdentically) {
  auto run = [](bool use_builder) {
    Fixture fx(32, 4);
    const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      double sum = 0;
      ctx.region(0).domain().for_each([&](const Point& p) {
        acc.write(p, static_cast<double>(p[0]));
        sum += static_cast<double>(p[0]);
      });
      ctx.return_value = sum;
    });
    IndexLauncher launcher;
    if (use_builder) {
      launcher = IndexLauncher::over(Domain::line(4))
                     .with_task(fill)
                     .region(fx.region, fx.blocks,
                             ProjectionFunctor::identity(1), {fx.fv},
                             Privilege::kWrite)
                     .reduce(ReductionOp::kSum);
    } else {
      launcher.task = fill;
      launcher.domain = Domain::line(4);
      launcher.args = {{fx.region, fx.blocks, ProjectionFunctor::identity(1),
                        {fx.fv}, Privilege::kWrite, ReductionOp::kNone}};
      launcher.result_redop = ReductionOp::kSum;
    }
    LaunchResult r = fx.rt.execute_index(launcher);
    return r.future.get(fx.rt);
  };
  EXPECT_DOUBLE_EQ(run(true), run(false));
  EXPECT_DOUBLE_EQ(run(true), 31.0 * 32.0 / 2.0);
}

// ---------- execute() returns LaunchResult ----------

TEST(BuilderTest, SingleLaunchReturnsUniformLaunchResult) {
  Fixture fx(8, 1);
  const TaskFnId ret = fx.rt.register_task("ret", [](TaskContext& ctx) {
    ctx.return_value = 2.5;
  });
  const LaunchResult plain = fx.rt.execute(TaskLauncher::for_task(ret));
  EXPECT_FALSE(plain.ran_as_index_launch);
  EXPECT_EQ(plain.safety.outcome, SafetyOutcome::kSafeStatic);
  EXPECT_FALSE(plain.future.valid());

  const LaunchResult collected = fx.rt.execute(
      TaskLauncher::for_task(ret).reduce(ReductionOp::kSum));
  ASSERT_TRUE(collected.future.valid());
  EXPECT_DOUBLE_EQ(collected.future.get(fx.rt), 2.5);
}

}  // namespace
}  // namespace idxl
