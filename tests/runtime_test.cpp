#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>

#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"

namespace idxl {
namespace {

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

TEST(RuntimeTest, SingleTaskWritesRegion) {
  Fixture fx(8, 1);
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  fx.rt.execute(TaskLauncher::for_task(fill).region(fx.region, {fx.fv},
                                                    Privilege::kWrite));
  fx.rt.wait_all();
  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(5)), 5.0);
  EXPECT_EQ(fx.rt.stats().point_tasks, 1u);
}

TEST(RuntimeTest, IndexLaunchIdentityIsSafeStaticAndOneCall) {
  Fixture fx(64, 16);
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(ctx.point[0])); });
  });
  const LaunchResult result = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(16))
          .with_task(fill)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kWrite));
  fx.rt.wait_all();

  EXPECT_TRUE(result.ran_as_index_launch);
  EXPECT_EQ(result.safety.outcome, SafetyOutcome::kSafeStatic);
  // O(1) issuance: one runtime call for 16 tasks.
  EXPECT_EQ(fx.rt.stats().runtime_calls, 1u);
  EXPECT_EQ(fx.rt.stats().point_tasks, 16u);

  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  // Element 63 belongs to block 15.
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(63)), 15.0);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(0)), 0.0);
}

TEST(RuntimeTest, NoIdxModeIssuesPerTaskCalls) {
  RuntimeConfig cfg;
  cfg.enable_index_launches = false;
  Fixture fx(64, 16, cfg);
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(ctx.point[0])); });
  });
  const LaunchResult result = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(16))
          .with_task(fill)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kWrite));
  fx.rt.wait_all();

  EXPECT_FALSE(result.ran_as_index_launch);
  // O(P) issuance in No-IDX mode (the paper's baseline configuration).
  EXPECT_EQ(fx.rt.stats().runtime_calls, 16u);
  EXPECT_EQ(fx.rt.stats().point_tasks, 16u);
  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(63)), 15.0);
}

TEST(RuntimeTest, ProgramOrderAcrossLaunches) {
  // Launch 1 writes v[i] = i; launch 2 reads left neighbor's halo and adds.
  Fixture fx(40, 4);
  auto& forest = fx.rt.forest();
  const PartitionId halos = partition_halo(forest, fx.is, fx.blocks, 1);

  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  const TaskFnId smooth = fx.rt.register_task("smooth", [](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    auto out = ctx.region(1).accessor<double>(0);
    const Domain& halo = ctx.region(0).domain();
    ctx.region(1).domain().for_each([&](const Point& p) {
      double sum = in.read(p);
      const Point l = Point::p1(p[0] - 1), r = Point::p1(p[0] + 1);
      if (halo.contains(l)) sum += in.read(l);
      if (halo.contains(r)) sum += in.read(r);
      out.write(p, sum);
    });
  });

  // Second region for output (separate tree).
  const RegionId out_region = forest.create_region(fx.is, fx.fs);

  fx.rt.execute_index(IndexLauncher::over(Domain::line(4))
                          .with_task(fill)
                          .region(fx.region, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kWrite));

  const auto r2 = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(4))
          .with_task(smooth)
          .region(fx.region, halos, ProjectionFunctor::identity(1), {fx.fv},
                  Privilege::kRead)
          .region(out_region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kWrite));
  fx.rt.wait_all();
  EXPECT_TRUE(r2.ran_as_index_launch);

  auto acc = fx.rt.read_region<double>(out_region, fx.fv);
  // Interior point 17: 16+17+18.
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(17)), 51.0);
  // Block-boundary point 9 reads neighbor block's value 10 via the halo —
  // this is only correct if launch 2 waited for *all* of launch 1's
  // relevant writers.
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(9)), 8.0 + 9.0 + 10.0);
  // Edge point 0: 0+1.
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(0)), 1.0);
}

TEST(RuntimeTest, UnsafeLaunchFallsBackSequentially) {
  // write q[i % 3] over [0,6): unsafe as an index launch; the fallback task
  // loop must still produce the sequential semantics: q[c] ends up with the
  // LAST i mapping to c.
  Fixture fx(3, 3);
  const TaskFnId stamp = fx.rt.register_task("stamp", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(ctx.point[0])); });
  });
  const LaunchResult result = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(6))
          .with_task(stamp)
          .region(fx.region, fx.blocks, ProjectionFunctor::modular1d(0, 3),
                  {fx.fv}, Privilege::kWrite));
  fx.rt.wait_all();

  EXPECT_FALSE(result.ran_as_index_launch);
  EXPECT_EQ(result.safety.outcome, SafetyOutcome::kUnsafe);
  EXPECT_EQ(fx.rt.stats().launches_unsafe, 1u);

  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  // Block c is last written by i = c + 3.
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(0)), 3.0);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(1)), 4.0);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(2)), 5.0);

  // Traced: the capture runs the task loop, and every replay returns what
  // the capture returned and runs the same loop.
  for (int pass = 0; pass < 3; ++pass) {
    fx.rt.begin_trace(1);
    const LaunchResult traced = fx.rt.execute_index(
        IndexLauncher::over(Domain::line(6))
            .with_task(stamp)
            .region(fx.region, fx.blocks, ProjectionFunctor::modular1d(0, 3),
                    {fx.fv}, Privilege::kWrite));
    fx.rt.end_trace(1);
    EXPECT_FALSE(traced.ran_as_index_launch) << "pass " << pass;
    EXPECT_EQ(traced.safety.outcome, SafetyOutcome::kUnsafe) << "pass " << pass;
    EXPECT_EQ(fx.rt.stats().index_launches, 0u) << "pass " << pass;
  }
  EXPECT_EQ(fx.rt.stats().traced_tasks_replayed, 2u * 6u);
  auto traced_acc = fx.rt.read_region<double>(fx.region, fx.fv);
  EXPECT_DOUBLE_EQ(traced_acc.read(Point::p1(0)), 3.0);
  EXPECT_DOUBLE_EQ(traced_acc.read(Point::p1(1)), 4.0);
  EXPECT_DOUBLE_EQ(traced_acc.read(Point::p1(2)), 5.0);
}

TEST(RuntimeTest, ReductionIntoSingleCell) {
  // Every task of the launch reduces its block's sum into one global cell
  // via a constant projection functor — safe because reductions are exempt
  // from self-checks.
  Fixture fx(100, 10);
  auto& forest = fx.rt.forest();
  const IndexSpaceId sum_is = forest.create_index_space(Domain::line(1));
  const RegionId sum_region = forest.create_region(sum_is, fx.fs);
  const PartitionId sum_part = partition_equal(forest, sum_is, Rect::line(1));

  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  const TaskFnId reduce = fx.rt.register_task("reduce", [](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    auto out = ctx.region(1).accessor<double>(0);
    double sum = 0;
    ctx.region(0).domain().for_each([&](const Point& p) { sum += in.read(p); });
    out.reduce(Point::p1(0), sum);
  });

  fx.rt.execute_index(IndexLauncher::over(Domain::line(10))
                          .with_task(fill)
                          .region(fx.region, fx.blocks,
                                  ProjectionFunctor::identity(1), {fx.fv},
                                  Privilege::kWrite));

  const auto r = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(10))
          .with_task(reduce)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kRead)
          .region(sum_region, sum_part,
                  ProjectionFunctor::symbolic({make_const(0)}), {fx.fv},
                  Privilege::kReduce, ReductionOp::kSum));
  fx.rt.wait_all();
  EXPECT_TRUE(r.ran_as_index_launch);

  auto acc = fx.rt.read_region<double>(sum_region, fx.fv);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(0)), 99.0 * 100.0 / 2.0);
}

TEST(RuntimeTest, ScalarArgsReachTasks) {
  Fixture fx(4, 1);
  struct Params {
    double scale;
    int64_t offset;
  };
  const TaskFnId fill = fx.rt.register_task("fill", [](TaskContext& ctx) {
    const auto& params = ctx.arg<Params>();
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, params.scale * static_cast<double>(p[0] + params.offset));
    });
  });
  fx.rt.execute(TaskLauncher::for_task(fill)
                    .region(fx.region, {fx.fv}, Privilege::kWrite)
                    .scalars(Params{2.5, 10}));
  fx.rt.wait_all();
  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(3)), 2.5 * 13.0);
}

TEST(RuntimeTest, IterativeStencilMatchesSerialReference) {
  const int64_t n = 60, pieces = 6, iters = 8;
  Fixture fx(n, pieces);
  auto& forest = fx.rt.forest();
  const FieldId f_new = forest.allocate_field(fx.fs, sizeof(double), "v_new");
  // Recreate region so it has both fields.
  const RegionId grid = forest.create_region(fx.is, fx.fs);
  const PartitionId blocks = partition_equal(forest, fx.is, Rect::line(pieces));
  const PartitionId halos = partition_halo(forest, fx.is, blocks, 1);

  const TaskFnId init = fx.rt.register_task("init", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, p[0] % 7 == 0 ? 100.0 : 0.0);
    });
  });
  const TaskFnId step = fx.rt.register_task("step", [f_new](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    auto out = ctx.region(1).accessor<double>(f_new);
    const Domain& halo = ctx.region(0).domain();
    ctx.region(1).domain().for_each([&](const Point& p) {
      double acc_val = in.read(p) * 0.5;
      const Point l = Point::p1(p[0] - 1), r = Point::p1(p[0] + 1);
      if (halo.contains(l)) acc_val += in.read(l) * 0.25;
      if (halo.contains(r)) acc_val += in.read(r) * 0.25;
      out.write(p, acc_val);
    });
  });
  const TaskFnId copy_back = fx.rt.register_task("copy", [f_new](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(f_new);
    auto out = ctx.region(1).accessor<double>(0);
    ctx.region(1).domain().for_each([&](const Point& p) { out.write(p, in.read(p)); });
  });

  fx.rt.execute(
      TaskLauncher::for_task(init).region(grid, {fx.fv}, Privilege::kWrite));

  for (int64_t it = 0; it < iters; ++it) {
    const auto rs = fx.rt.execute_index(
        IndexLauncher::over(Domain::line(pieces))
            .with_task(step)
            .region(grid, halos, ProjectionFunctor::identity(1), {fx.fv},
                    Privilege::kRead)
            .region(grid, blocks, ProjectionFunctor::identity(1), {f_new},
                    Privilege::kWrite));
    EXPECT_TRUE(rs.ran_as_index_launch);

    fx.rt.execute_index(
        IndexLauncher::over(Domain::line(pieces))
            .with_task(copy_back)
            .region(grid, blocks, ProjectionFunctor::identity(1), {f_new},
                    Privilege::kRead)
            .region(grid, blocks, ProjectionFunctor::identity(1), {fx.fv},
                    Privilege::kWrite));
  }
  fx.rt.wait_all();

  // Serial reference.
  std::vector<double> ref(n);
  for (int64_t i = 0; i < n; ++i) ref[static_cast<std::size_t>(i)] = i % 7 == 0 ? 100.0 : 0.0;
  for (int64_t it = 0; it < iters; ++it) {
    std::vector<double> next(n);
    for (int64_t i = 0; i < n; ++i) {
      double v = ref[static_cast<std::size_t>(i)] * 0.5;
      if (i > 0) v += ref[static_cast<std::size_t>(i - 1)] * 0.25;
      if (i < n - 1) v += ref[static_cast<std::size_t>(i + 1)] * 0.25;
      next[static_cast<std::size_t>(i)] = v;
    }
    ref = std::move(next);
  }
  auto acc = fx.rt.read_region<double>(grid, fx.fv);
  for (int64_t i = 0; i < n; ++i)
    ASSERT_NEAR(acc.read(Point::p1(i)), ref[static_cast<std::size_t>(i)], 1e-12) << i;
}

TEST(RuntimeTest, TraceCaptureAndReplayProduceSameResults) {
  const int64_t n = 32, pieces = 4;
  Fixture fx(n, pieces);
  auto& forest = fx.rt.forest();
  const PartitionId halos = partition_halo(forest, fx.is, fx.blocks, 1);
  const FieldId f_new = forest.allocate_field(fx.fs, sizeof(double), "v_new");
  const RegionId grid = forest.create_region(fx.is, fx.fs);
  const PartitionId blocks = partition_equal(forest, fx.is, Rect::line(pieces));
  const PartitionId ghosts = partition_halo(forest, fx.is, blocks, 1);
  (void)halos;

  const TaskFnId init = fx.rt.register_task("init", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  const TaskFnId step = fx.rt.register_task("step", [f_new](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(0);
    auto out = ctx.region(1).accessor<double>(f_new);
    const Domain& halo = ctx.region(0).domain();
    ctx.region(1).domain().for_each([&](const Point& p) {
      double v = in.read(p);
      const Point l = Point::p1(p[0] - 1);
      if (halo.contains(l)) v += in.read(l);
      out.write(p, v);
    });
  });
  const TaskFnId copy_back = fx.rt.register_task("copy", [f_new](TaskContext& ctx) {
    auto in = ctx.region(0).accessor<double>(f_new);
    auto out = ctx.region(1).accessor<double>(0);
    ctx.region(1).domain().for_each([&](const Point& p) { out.write(p, in.read(p)); });
  });

  fx.rt.execute(
      TaskLauncher::for_task(init).region(grid, {fx.fv}, Privilege::kWrite));

  auto run_iteration = [&] {
    fx.rt.execute_index(
        IndexLauncher::over(Domain::line(pieces))
            .with_task(step)
            .region(grid, ghosts, ProjectionFunctor::identity(1), {fx.fv},
                    Privilege::kRead)
            .region(grid, blocks, ProjectionFunctor::identity(1), {f_new},
                    Privilege::kWrite));
    fx.rt.execute_index(
        IndexLauncher::over(Domain::line(pieces))
            .with_task(copy_back)
            .region(grid, blocks, ProjectionFunctor::identity(1), {f_new},
                    Privilege::kRead)
            .region(grid, blocks, ProjectionFunctor::identity(1), {fx.fv},
                    Privilege::kWrite));
  };

  // Iteration 1 captures the trace; iterations 2..5 replay it.
  for (int it = 0; it < 5; ++it) {
    fx.rt.begin_trace(7);
    run_iteration();
    fx.rt.end_trace(7);
  }
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.stats().traced_tasks_replayed, 4u * 2u * pieces);

  // Serial reference: v[i] += v[i-1], 5 times (Jacobi-style with copy).
  std::vector<double> ref(n);
  std::iota(ref.begin(), ref.end(), 0.0);
  for (int it = 0; it < 5; ++it) {
    std::vector<double> next(n);
    for (int64_t i = 0; i < n; ++i)
      next[static_cast<std::size_t>(i)] =
          ref[static_cast<std::size_t>(i)] + (i > 0 ? ref[static_cast<std::size_t>(i - 1)] : 0.0);
    ref = std::move(next);
  }
  auto acc = fx.rt.read_region<double>(grid, fx.fv);
  for (int64_t i = 0; i < n; ++i)
    ASSERT_NEAR(acc.read(Point::p1(i)), ref[static_cast<std::size_t>(i)], 1e-9) << i;
}

TEST(RuntimeTest, TraceReplayDivergenceDetected) {
  Fixture fx(8, 2);
  const TaskFnId a = fx.rt.register_task("a", [](TaskContext&) {});
  const TaskFnId b = fx.rt.register_task("b", [](TaskContext&) {});

  fx.rt.begin_trace(1);
  fx.rt.execute(TaskLauncher::for_task(a));
  fx.rt.end_trace(1);

  fx.rt.begin_trace(1);
  EXPECT_THROW(fx.rt.execute(TaskLauncher::for_task(b)),
               RuntimeError);  // diverges from capture
  // The divergent task issued nothing, and the runtime stays usable: the
  // rest of the scope runs untraced, end_trace closes it, and the dropped
  // capture is captured afresh by the next begin_trace.
  EXPECT_EQ(fx.rt.stats().point_tasks, 1u);
  EXPECT_EQ(fx.rt.stats().tasks_completed, 1u);
  fx.rt.execute(TaskLauncher::for_task(b));
  EXPECT_NO_THROW(fx.rt.end_trace(1));
  EXPECT_NO_THROW(fx.rt.begin_trace(2));
  EXPECT_NO_THROW(fx.rt.end_trace(2));
  for (int pass = 0; pass < 2; ++pass) {
    fx.rt.begin_trace(1);
    fx.rt.execute(TaskLauncher::for_task(b));
    fx.rt.end_trace(1);
  }
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.stats().traced_tasks_replayed, 1u);
  EXPECT_EQ(fx.rt.stats().point_tasks, 4u);
  EXPECT_EQ(fx.rt.stats().tasks_completed, 4u);

  // An index launch whose region arguments diverge is refused before any of
  // its points issues.
  const TaskFnId touch = fx.rt.register_task("touch", [](TaskContext&) {});
  auto launch = [&](ProjectionFunctor f) {
    return IndexLauncher::over(Domain::line(2))
        .with_task(touch)
        .region(fx.region, fx.blocks, std::move(f), {fx.fv}, Privilege::kReadWrite);
  };
  fx.rt.begin_trace(3);
  fx.rt.execute_index(launch(ProjectionFunctor::identity(1)));
  fx.rt.end_trace(3);
  fx.rt.begin_trace(3);
  EXPECT_THROW(fx.rt.execute_index(launch(ProjectionFunctor::affine1d(-1, 1))),
               RuntimeError);
  fx.rt.end_trace(3);
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.stats().point_tasks, 6u);
  EXPECT_EQ(fx.rt.stats().tasks_completed, 6u);
  EXPECT_EQ(fx.rt.stats().traced_tasks_replayed, 1u);

  // A replay that stops short of its capture is refused at end_trace, which
  // still closes the scope and drops the capture.
  fx.rt.begin_trace(4);
  fx.rt.execute(TaskLauncher::for_task(a));
  fx.rt.execute(TaskLauncher::for_task(a));
  fx.rt.end_trace(4);
  fx.rt.begin_trace(4);
  fx.rt.execute(TaskLauncher::for_task(a));
  EXPECT_THROW(fx.rt.end_trace(4), RuntimeError);
  EXPECT_NO_THROW(fx.rt.begin_trace(4));  // captures afresh
  fx.rt.execute(TaskLauncher::for_task(a));
  fx.rt.end_trace(4);
  EXPECT_EQ(fx.rt.stats().traced_tasks_replayed, 2u);
}

/// Every dependence edge (from, to) the runtime's event log recorded.
std::vector<std::pair<uint64_t, uint64_t>> logged_edges(const Runtime& rt) {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (const TaskSample& s : rt.profiler().task_samples())
    for (uint64_t dep : s.deps) edges.emplace_back(dep, s.seq);
  return edges;
}

// Regression: a predecessor that had already *completed* by the time a later
// conflicting task was analyzed used to compact out of the tracker without
// reporting an edge. During trace capture that edge is load-bearing — on
// replay both tasks re-execute concurrently, and the missing ordering
// surfaced as an intermittent data race (ASan flake in
// DifferentialTest.RegionContentsMatchAcrossConfigs). Capture must keep
// done-clean uses and record their edges.
TEST(RuntimeTest, TraceCaptureKeepsEdgesToCompletedPredecessors) {
  RuntimeConfig cfg;
  cfg.enable_profiling = true;
  Fixture fx(16, 4, cfg);
  const TaskFnId bump = fx.rt.register_task("bump", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, acc.read(p) + 1.0); });
  });
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(4))
          .with_task(bump)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kReadWrite);

  fx.rt.begin_trace(11);
  fx.rt.execute_index(launcher);
  // Let the first launch fully retire mid-capture: its tracker uses are
  // now done-clean — exactly the state that used to vanish edgeless.
  fx.rt.pool().wait_idle();
  fx.rt.execute_index(launcher);
  fx.rt.end_trace(11);
  fx.rt.wait_all();
  // Point i of launch 2 (seq 4+i) must order after point i of launch 1
  // (seq i); cross-color pairs of the disjoint partition stay edge-free.
  ASSERT_EQ(logged_edges(fx.rt).size(), 4u);
  for (const auto& [from, to] : logged_edges(fx.rt))
    EXPECT_EQ(to, from + 4);

  // Replay re-executes both launches; the captured edges must come along.
  fx.rt.begin_trace(11);
  fx.rt.execute_index(launcher);
  fx.rt.execute_index(launcher);
  fx.rt.end_trace(11);
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.stats().traced_tasks_replayed, 8u);
  ASSERT_EQ(logged_edges(fx.rt).size(), 8u);
  for (const auto& [from, to] : logged_edges(fx.rt))
    EXPECT_EQ(to, from + 4);
}

// A traced segment that mixes every issue path — a launch through a
// disjoint partition, a launch through an aliased partition, a single task,
// a fill and a launch with a Future reduction — replays exactly what it
// captured: each replay's edge set is the capture's shifted by the seq
// offset, and every Future value and the final region contents are
// bit-identical to an untraced runtime running the same program.
TEST(RuntimeTest, TraceReplayReproducesCaptureAcrossIssuePaths) {
  constexpr int kIterations = 4;  // one capture, three replays
  struct Run {
    std::vector<double> futures;
    std::vector<double> contents;
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> edges;  // per iteration
    std::vector<uint64_t> first_seq;                                // per iteration
    RuntimeStats stats;
  };
  auto run = [](bool traced) {
    RuntimeConfig cfg;
    cfg.enable_profiling = true;
    cfg.workers = 2;
    Fixture fx(64, 8, cfg);
    auto& forest = fx.rt.forest();
    const FieldSpaceId fs = forest.create_field_space();
    const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
    const FieldId fw = forest.allocate_field(fs, sizeof(double), "w");
    const RegionId region = forest.create_region(fx.is, fs);
    const PartitionId halo = partition_halo(forest, fx.is, fx.blocks, 1);
    const TaskFnId scale = fx.rt.register_task("scale", [fv](TaskContext& ctx) {
      auto v = ctx.region(0).accessor<double>(fv);
      ctx.region(0).domain().for_each([&](const Point& p) {
        v.write(p, v.read(p) * 0.5 + static_cast<double>(ctx.point[0]));
      });
    });
    const TaskFnId smooth = fx.rt.register_task("smooth", [fv, fw](TaskContext& ctx) {
      auto in = ctx.region(0).accessor<double>(fv);
      auto out = ctx.region(1).accessor<double>(fw);
      double sum = 0.0;
      ctx.region(0).domain().for_each([&](const Point& p) { sum += in.read(p); });
      ctx.region(1).domain().for_each([&](const Point& p) { out.write(p, sum + p[0]); });
    });
    const TaskFnId mix = fx.rt.register_task("mix", [fv, fw](TaskContext& ctx) {
      auto v = ctx.region(0).accessor<double>(fv);
      auto w = ctx.region(1).accessor<double>(fw);
      ctx.region(0).domain().for_each(
          [&](const Point& p) { v.write(p, v.read(p) + w.read(p) * 0.25); });
    });
    const TaskFnId dot = fx.rt.register_task("dot", [fv, fw](TaskContext& ctx) {
      auto v = ctx.region(0).accessor<double>(fv);
      auto w = ctx.region(1).accessor<double>(fw);
      double sum = 0.0;
      ctx.region(0).domain().for_each([&](const Point& p) { sum += v.read(p) * w.read(p); });
      ctx.return_value = sum;
    });
    fx.rt.fill(region, fv, 1.0);
    fx.rt.wait_all();

    Run out;
    for (int it = 0; it < kIterations; ++it) {
      const std::size_t nodes_before = fx.rt.profiler().task_samples().size();
      if (traced) fx.rt.begin_trace(5);
      fx.rt.execute_index(IndexLauncher::over(Domain::line(8))
                              .with_task(scale)
                              .region(region, fx.blocks, ProjectionFunctor::identity(1),
                                      {fv}, Privilege::kReadWrite));
      fx.rt.execute_index(IndexLauncher::over(Domain::line(8))
                              .with_task(smooth)
                              .region(region, halo, ProjectionFunctor::identity(1),
                                      {fv}, Privilege::kRead)
                              .region(region, fx.blocks, ProjectionFunctor::identity(1),
                                      {fw}, Privilege::kWrite));
      fx.rt.execute(TaskLauncher::for_task(mix)
                        .region(region, {fv}, Privilege::kReadWrite)
                        .region(region, {fw}, Privilege::kRead));
      fx.rt.fill(region, fw, 0.75 + it);
      const LaunchResult sum =
          fx.rt.execute_index(IndexLauncher::over(Domain::line(8))
                                  .with_task(dot)
                                  .reduce(ReductionOp::kSum)
                                  .region(region, fx.blocks,
                                          ProjectionFunctor::identity(1), {fv},
                                          Privilege::kRead)
                                  .region(region, fx.blocks,
                                          ProjectionFunctor::identity(1), {fw},
                                          Privilege::kRead));
      if (traced) fx.rt.end_trace(5);
      out.futures.push_back(sum.future.get(fx.rt));
      // This iteration's tasks follow the earlier ones in seq order.
      const std::vector<TaskSample> samples = fx.rt.profiler().task_samples();
      out.first_seq.push_back(samples[nodes_before].seq);
      std::vector<std::pair<uint64_t, uint64_t>>& edges = out.edges.emplace_back();
      for (std::size_t i = nodes_before; i < samples.size(); ++i)
        for (uint64_t dep : samples[i].deps) edges.emplace_back(dep, samples[i].seq);
    }
    for (FieldId f : {fv, fw}) {
      auto acc = fx.rt.read_region<double>(region, f);
      Domain::line(64).for_each([&](const Point& p) { out.contents.push_back(acc.read(p)); });
    }
    out.stats = fx.rt.stats();
    return out;
  };

  const Run plain = run(false);
  const Run traced = run(true);
  const uint64_t per_iteration = 8 + 8 + 1 + 1 + 8;
  EXPECT_EQ(traced.stats.traced_tasks_replayed, (kIterations - 1) * per_iteration);

  ASSERT_FALSE(traced.edges[0].empty());
  auto shifted = [&](int it) {
    std::vector<std::pair<uint64_t, uint64_t>> e = traced.edges[static_cast<std::size_t>(it)];
    const uint64_t offset = traced.first_seq[static_cast<std::size_t>(it)] - traced.first_seq[0];
    for (auto& [from, to] : e) {
      from -= offset;
      to -= offset;
    }
    std::sort(e.begin(), e.end());
    return e;
  };
  for (int it = 1; it < kIterations; ++it) EXPECT_EQ(shifted(it), shifted(0)) << "replay " << it;

  for (int it = 0; it < kIterations; ++it) {
    const double a = traced.futures[static_cast<std::size_t>(it)];
    const double b = plain.futures[static_cast<std::size_t>(it)];
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << "iteration " << it << ": " << a
                                                      << " vs " << b;
  }
  ASSERT_EQ(traced.contents.size(), plain.contents.size());
  EXPECT_EQ(std::memcmp(traced.contents.data(), plain.contents.data(),
                        plain.contents.size() * sizeof(double)),
            0);
}

TEST(RuntimeTest, TaskGraphExport) {
  RuntimeConfig cfg;
  cfg.enable_profiling = true;
  Fixture fx(16, 4, cfg);
  // Pause the pool so launch 1's points are still live when launch 2's
  // dependences are analyzed; completed uses are compacted out of the
  // tracker, so ungated tiny tasks would race the edge count below.
  // Paused workers enqueue without executing — a deterministic gate.
  fx.rt.pool().pause();
  const TaskFnId stamp = fx.rt.register_task("stamp", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, 1.0); });
  });
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(4))
          .with_task(stamp)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kReadWrite);
  fx.rt.execute_index(launcher);
  fx.rt.execute_index(launcher);
  fx.rt.pool().resume();
  fx.rt.wait_all();

  const std::string dot = fx.rt.profiler().task_graph_dot();
  // 8 nodes; launch 2's task i depends on launch 1's task i -> 4 edges.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '['), 1 + 8);  // node attrs + header
  EXPECT_NE(dot.find("stamp@(0)"), std::string::npos);
  EXPECT_EQ(static_cast<int>(std::count(dot.begin(), dot.end(), '>')), 4);

  // Without capture, export throws.
  Fixture plain(16, 4);
  EXPECT_THROW(plain.rt.profiler().task_graph_dot(), RuntimeError);
}

TEST(RuntimeTest, EmptyDomainLaunchThrows) {
  Fixture fx(8, 2);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  EXPECT_THROW(fx.rt.execute_index(
                   IndexLauncher::over(Domain::from_points({})).with_task(noop)),
               RuntimeError);
}

TEST(RuntimeTest, UnknownTaskIdThrows) {
  Fixture fx(8, 2);
  EXPECT_THROW(
      fx.rt.execute_index(IndexLauncher::over(Domain::line(2)).with_task(999)),
      RuntimeError);
  EXPECT_THROW(fx.rt.execute(TaskLauncher::for_task(999)), RuntimeError);
}

TEST(RuntimeTest, FunctorColorOutsidePartitionThrows) {
  Fixture fx(8, 2);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  // Functor maps beyond the 2-color partition; reads are exempt from
  // safety checks, so the failure surfaces at subregion resolution.
  EXPECT_THROW(
      fx.rt.execute_index(IndexLauncher::over(Domain::line(4))
                              .with_task(noop)
                              .region(fx.region, fx.blocks,
                                      ProjectionFunctor::identity(1), {fx.fv},
                                      Privilege::kRead)),
      RuntimeError);
}

TEST(RuntimeDeathTest, ReadWithoutPrivilegeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture fx(8, 2);
  const TaskFnId bad = fx.rt.register_task("bad", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    (void)acc.read(Point::p1(0));  // declared write-only
  });
  const TaskLauncher launcher = TaskLauncher::for_task(bad).region(
      fx.region, {fx.fv}, Privilege::kWrite);
  EXPECT_DEATH(
      {
        fx.rt.execute(launcher);
        fx.rt.wait_all();
      },
      "privilege");
}

TEST(RuntimeDeathTest, OutOfBoundsAccessAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture fx(8, 2);
  const TaskFnId bad = fx.rt.register_task("bad", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    acc.write(Point::p1(7), 1.0);  // block 0 covers [0, 4)
  });
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(1))
          .with_task(bad)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kWrite);
  EXPECT_DEATH(
      {
        fx.rt.execute_index(launcher);
        fx.rt.wait_all();
      },
      "bounds");
}

// Runs one index launch of `body` over block 1 ([4, 8)) of an 8-element
// line split in two, with privilege `priv`.
void run_on_block_one(Fixture& fx, TaskFn body, Privilege priv) {
  const TaskFnId t = fx.rt.register_task("run_access", std::move(body));
  fx.rt.execute_index(IndexLauncher::over(Domain(Rect(Point::p1(1), Point::p1(1))))
                          .with_task(t)
                          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                                  {fx.fv}, priv));
  fx.rt.wait_all();
}

TEST(RuntimeDeathTest, RunPastEitherEndOfBlockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture fx(8, 2);
  // The whole block is one run; it is fine.
  run_on_block_one(
      fx,
      [](TaskContext& ctx) {
        auto acc = ctx.region(0).accessor<double>(0);
        for (double& v : acc.write_run(Point::p1(4), 4)) v = 1.0;
      },
      Privilege::kReadWrite);
  EXPECT_DEATH(run_on_block_one(
                   fx,
                   [](TaskContext& ctx) {
                     auto acc = ctx.region(0).accessor<double>(0);
                     (void)acc.read_run(Point::p1(3), 5);  // one before the block
                   },
                   Privilege::kReadWrite),
               "region access out of privilege bounds");
  EXPECT_DEATH(run_on_block_one(
                   fx,
                   [](TaskContext& ctx) {
                     auto acc = ctx.region(0).accessor<double>(0);
                     (void)acc.write_run(Point::p1(4), 5);  // one past the block
                   },
                   Privilege::kReadWrite),
               "region access out of privilege bounds");
}

TEST(RuntimeDeathTest, RunAcrossSparseGapAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture fx(8, 2);
  // Color 0 is {0, 1, 2, 5, 6, 7}: both ends of the run 2..5 are in it,
  // the middle is not.
  auto& forest = fx.rt.forest();
  const PartitionId gapped = partition_by_coloring(
      forest, fx.is, Rect::line(2),
      [](const Point& p) { return Point::p1(p[0] == 3 || p[0] == 4 ? 1 : 0); });
  const RegionId view = forest.subregion(fx.region, gapped, Point::p1(0));
  ASSERT_FALSE(forest.region_domain(view).dense());
  auto read_run = [&](int64_t lo, int64_t n) {
    const TaskFnId t = fx.rt.register_task("sparse_run", [lo, n](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      (void)acc.read_run(Point::p1(lo), n);
    });
    fx.rt.execute(TaskLauncher::for_task(t).region(view, {fx.fv}, Privilege::kRead));
    fx.rt.wait_all();
  };
  read_run(0, 3);
  read_run(5, 3);
  EXPECT_DEATH(read_run(2, 4), "region access out of privilege bounds");
}

TEST(RuntimeDeathTest, WriteRunThroughReadOnlyViewAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Fixture fx(8, 2);
  EXPECT_DEATH(run_on_block_one(
                   fx,
                   [](TaskContext& ctx) {
                     auto acc = ctx.region(0).accessor<double>(0);
                     (void)acc.write_run(Point::p1(4), 4);
                   },
                   Privilege::kRead),
               "write access without write privilege");
}

// Whole storage of each of `fields` of root region `root`.
std::vector<std::vector<std::byte>> storage_of(RegionForest& forest, RegionId root,
                                               const std::vector<FieldId>& fields) {
  std::vector<std::vector<std::byte>> out;
  const std::size_t volume = static_cast<std::size_t>(forest.storage_bounds(root).volume());
  for (const FieldId f : fields) {
    const std::byte* data = forest.field_data(root, f);
    out.emplace_back(data, data + volume * forest.field(forest.region(root).fspace, f).size);
  }
  return out;
}

// Bytes `n`, `n + 1`, ... (mod 251): contents no two neighbours share.
std::vector<std::byte> numbered_bytes(std::size_t count, std::size_t n) {
  std::vector<std::byte> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = std::byte((n + i) % 251);
  return out;
}

// The per-element reference for the run-wise copy paths: every element is
// linearized and copied on its own, in Domain::for_each order.
TEST(PhysicalRegionTest, RunCopiesMatchPerElementReference) {
  RegionForest forest;
  const IndexSpaceId grid_is = forest.create_index_space(Domain(Rect::box2(6, 5)));
  const IndexSpaceId line_is = forest.create_index_space(Domain::line(20));
  const IndexSpaceId src_is = forest.create_index_space(Domain::line(8));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fa = forest.allocate_field(fs, sizeof(double), "a");
  const FieldId fb = forest.allocate_field(fs, sizeof(int32_t), "b");
  const std::vector<FieldId> fields = {fb, fa};  // argument order, not id order
  const RegionId grid = forest.create_region(grid_is, fs);
  const RegionId line = forest.create_region(line_is, fs);
  const PartitionId blocks = partition_equal(forest, grid_is, Rect::box2(2, 2));
  const PartitionId columns = partition_equal(forest, grid_is, Rect::box2(1, 5));
  const PartitionId image = partition_image(
      forest, grid_is, partition_equal(forest, src_is, Rect::line(2)),
      [](const Point& p) { return Point::p2((p[0] * 3) % 6, (p[0] * 2) % 5); });
  const PartitionId pieces = partition_equal(forest, line_is, Rect::line(3));
  const std::vector<RegionId> views = {
      forest.subregion(grid, blocks, Point::p2(1, 0)),   // dense 2-D block
      forest.subregion(grid, columns, Point::p2(0, 3)),  // 1-wide column: 1-element runs
      forest.subregion(grid, image, Point::p1(0)),       // sparse image view
      forest.subregion(line, pieces, Point::p1(1)),      // 1-D block: one run
  };
  ASSERT_FALSE(forest.region_domain(views[2]).dense());

  std::size_t salt = 1;
  for (const RegionId v : views) {
    const Domain& d = forest.region_domain(v);
    SCOPED_TRACE(d.to_string());
    const RegionId root = forest.region(v).root;
    const Rect& bounds = forest.storage_bounds(root);
    auto element = [&](std::vector<std::vector<std::byte>>& storage, std::size_t i,
                       const Point& p) {
      const std::size_t size = forest.field(fs, fields[i]).size;
      return storage[i].data() + static_cast<std::size_t>(bounds.linearize(p)) * size;
    };
    auto seed = [&] {
      for (const FieldId f : fields) {
        const std::size_t bytes =
            static_cast<std::size_t>(bounds.volume()) * forest.field(fs, f).size;
        const std::vector<std::byte> init = numbered_bytes(bytes, salt++);
        std::memcpy(forest.field_data(root, f), init.data(), bytes);
      }
    };
    seed();
    PhysicalRegion pr(forest, v, fields, Privilege::kReadWrite, ReductionOp::kNone);

    // copy_out appends fields in argument order, elements in for_each order.
    auto now = storage_of(forest, root, fields);
    std::vector<std::byte> expect = {std::byte{0xAB}};
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const std::size_t size = forest.field(fs, fields[i]).size;
      d.for_each([&](const Point& p) {
        const std::byte* src = element(now, i, p);
        expect.insert(expect.end(), src, src + size);
      });
    }
    std::vector<std::byte> out = {std::byte{0xAB}};
    pr.copy_out(out);
    EXPECT_EQ(out, expect);

    // copy_in consumes the same layout from an offset.
    const std::vector<std::byte> payload = numbered_bytes(3 + expect.size() - 1, salt++);
    auto want = storage_of(forest, root, fields);
    std::size_t offset = 3;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const std::size_t size = forest.field(fs, fields[i]).size;
      d.for_each([&](const Point& p) {
        std::memcpy(element(want, i, p), payload.data() + offset, size);
        offset += size;
      });
    }
    EXPECT_EQ(pr.copy_in(payload, 3), offset);
    EXPECT_EQ(storage_of(forest, root, fields), want);
    const std::vector<std::byte> short_payload(payload.begin(), payload.end() - 1);
    EXPECT_THROW(pr.copy_in(short_payload, 3), RuntimeError);
    seed();

    // fill_bytes writes the pattern into every element of one field.
    const double pattern = -2.75;
    want = storage_of(forest, root, fields);
    d.for_each(
        [&](const Point& p) { std::memcpy(element(want, 1, p), &pattern, sizeof(pattern)); });
    pr.fill_bytes(fa, &pattern, sizeof(pattern));
    EXPECT_EQ(storage_of(forest, root, fields), want);

    // copy_out_rect / copy_in_rect cover the view's bounding rect row-major.
    const Rect rect = d.bounds();
    now = storage_of(forest, root, fields);
    std::vector<std::byte> rect_expect;
    for (const Point& p : rect) {
      const std::byte* src = element(now, 0, p);
      rect_expect.insert(rect_expect.end(), src, src + sizeof(int32_t));
    }
    std::vector<std::byte> rect_out;
    pr.copy_out_rect(fb, rect, rect_out);
    EXPECT_EQ(rect_out, rect_expect);

    const std::vector<std::byte> patch = numbered_bytes(rect_expect.size(), salt++);
    want = storage_of(forest, root, fields);
    offset = 0;
    for (const Point& p : rect) {
      std::memcpy(element(want, 0, p), patch.data() + offset, sizeof(int32_t));
      offset += sizeof(int32_t);
    }
    pr.copy_in_rect(fb, rect, patch);
    EXPECT_EQ(storage_of(forest, root, fields), want);
  }
}

TEST(RuntimeTest, FutureReducesTaskReturnValues) {
  Fixture fx(100, 10);
  const TaskFnId block_sum = fx.rt.register_task("block_sum", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    double sum = 0;
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, static_cast<double>(p[0]));
      sum += static_cast<double>(p[0]);
    });
    ctx.return_value = sum;
  });
  IndexLauncher launcher =
      IndexLauncher::over(Domain::line(10))
          .with_task(block_sum)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kWrite)
          .reduce(ReductionOp::kSum);
  LaunchResult r = fx.rt.execute_index(launcher);
  ASSERT_TRUE(r.future.valid());
  EXPECT_DOUBLE_EQ(r.future.get(fx.rt), 99.0 * 100.0 / 2.0);

  // Max across blocks: block b holds values up to 10b+9.
  launcher.result_redop = ReductionOp::kMax;
  const TaskFnId block_max = fx.rt.register_task("block_max", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    double best = -1e300;
    ctx.region(0).domain().for_each([&](const Point& p) {
      best = std::max(best, acc.read(p));
      acc.write(p, best);
    });
    ctx.return_value = best;
  });
  launcher.task = block_max;
  launcher.args[0].privilege = Privilege::kReadWrite;
  LaunchResult r2 = fx.rt.execute_index(launcher);
  EXPECT_DOUBLE_EQ(r2.future.get(fx.rt), 99.0);
}

TEST(RuntimeTest, FutureWorksInNoIdxAndFallbackModes) {
  auto run_mode = [](bool idx, const ProjectionFunctor& functor, int64_t domain) {
    RuntimeConfig cfg;
    cfg.enable_index_launches = idx;
    Fixture fx(30, 3, cfg);
    const TaskFnId one = fx.rt.register_task("one", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, 1.0); });
      ctx.return_value = 1.0;
    });
    return fx.rt
        .execute_index(IndexLauncher::over(Domain::line(domain))
                           .with_task(one)
                           .region(fx.region, fx.blocks, functor, {fx.fv},
                                   Privilege::kWrite)
                           .reduce(ReductionOp::kSum))
        .future.get(fx.rt);
  };
  // Index-launch path, task-loop (No-IDX) path, and the unsafe-fallback
  // path (i % 3 over 6 points) all produce the complete reduction.
  EXPECT_DOUBLE_EQ(run_mode(true, ProjectionFunctor::identity(1), 3), 3.0);
  EXPECT_DOUBLE_EQ(run_mode(false, ProjectionFunctor::identity(1), 3), 3.0);
  EXPECT_DOUBLE_EQ(run_mode(true, ProjectionFunctor::modular1d(0, 3), 6), 6.0);
}

TEST(RuntimeTest, EmptyFutureThrows) {
  Fixture fx(8, 2);
  Future empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.get(fx.rt), RuntimeError);
}

TEST(RuntimeTest, ExtendedStaticAnalysisAvoidsDynamicCheck) {
  RuntimeConfig cfg;
  cfg.extended_static_analysis = true;
  Fixture fx(40, 10, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  const LaunchResult r = fx.rt.execute_index(
      IndexLauncher::over(Domain::line(10))
          .with_task(noop)
          .region(fx.region, fx.blocks, ProjectionFunctor::modular1d(3, 10),
                  {fx.fv}, Privilege::kWrite));
  EXPECT_EQ(r.safety.outcome, SafetyOutcome::kSafeStatic);
  EXPECT_EQ(r.safety.dynamic_points, 0u);
  fx.rt.wait_all();
}

TEST(RuntimeTest, RepeatedLaunchesHitVerdictCache) {
  // Iterative workloads re-launch the same site every step; after the first
  // analysis, the verdict comes from the launch-site cache.
  Fixture fx(40, 10);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  const auto launch = [&] {
    return fx.rt.execute_index(
        IndexLauncher::over(Domain::line(10))
            .with_task(noop)
            .region(fx.region, fx.blocks, ProjectionFunctor::modular1d(3, 10),
                    {fx.fv}, Privilege::kWrite));
  };
  const LaunchResult first = launch();
  EXPECT_FALSE(first.safety.cache_hit);
  EXPECT_EQ(first.safety.outcome, SafetyOutcome::kSafeDynamic);
  EXPECT_EQ(first.safety.dynamic_points, 10u);
  for (int i = 0; i < 4; ++i) {
    const LaunchResult r = launch();
    EXPECT_TRUE(r.safety.cache_hit);
    EXPECT_EQ(r.safety.outcome, SafetyOutcome::kSafeDynamic);
    EXPECT_EQ(r.safety.dynamic_points, 0u);  // analysis was not redone
  }
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.stats().verdict_cache_hits, 4u);
  EXPECT_EQ(fx.rt.stats().verdict_cache_misses, 1u);
  EXPECT_EQ(fx.rt.verdict_cache().counters().hits, 4u);
}

TEST(RuntimeTest, RapidReissueStress) {
  // Regression test for an issuance race: a dependency that completes the
  // instant its successor edge is published must not double-trigger the
  // successor. Reproduces with no-op tasks whose predecessors finish faster
  // than the issuing thread can raise the pending count.
  RuntimeConfig cfg;
  cfg.workers = 2;
  Fixture fx(256, 64, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(64))
          .with_task(noop)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kReadWrite);
  for (int i = 0; i < 50; ++i) fx.rt.execute_index(launcher);
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.stats().point_tasks, 50u * 64u);
}

TEST(RuntimeTest, PausedPoolStartsNoInlineSuccessor) {
  // A completion that readies a successor while pause() is in progress must
  // queue it, not start it on the completing worker: pause() promises that
  // no task body starts until resume().
  RuntimeConfig cfg;
  cfg.workers = 2;
  Fixture fx(8, 2, cfg);
  std::atomic<bool> started{false}, released{false}, marker{false};
  const TaskFnId gate = fx.rt.register_task("gate", [&](TaskContext&) {
    started = true;
    while (!released) std::this_thread::yield();
  });
  const TaskFnId mark = fx.rt.register_task("mark", [&](TaskContext&) { marker = true; });
  fx.rt.execute(TaskLauncher::for_task(gate).region(fx.region, {fx.fv},
                                                    Privilege::kReadWrite));
  fx.rt.execute(TaskLauncher::for_task(mark).region(fx.region, {fx.fv},
                                                    Privilege::kReadWrite));
  while (!started) std::this_thread::yield();
  std::thread pauser([&] { fx.rt.pool().pause(); });
  while (!fx.rt.pool().paused()) std::this_thread::yield();
  released = true;
  pauser.join();  // pause() returns once the gate's job has finished
  EXPECT_FALSE(marker);
  fx.rt.pool().resume();
  fx.rt.wait_all();
  EXPECT_TRUE(marker);
  EXPECT_EQ(fx.rt.stats().tasks_inline, 0u);
}

TEST(RuntimeTest, SingleTasksShareOneInternedFieldList) {
  // A region argument's resolved fields are interned once per (root region,
  // field list): repeating a single task with the same list adds no entry;
  // the same fields in another order are another list.
  Runtime rt;
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(8));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fa = forest.allocate_field(fs, sizeof(double), "a");
  const FieldId fb = forest.allocate_field(fs, sizeof(double), "b");
  const RegionId region = forest.create_region(is, fs);
  const TaskFnId noop = rt.register_task("noop", [](TaskContext&) {});
  auto run = [&](const std::vector<FieldId>& fields) {
    rt.execute(TaskLauncher::for_task(noop).region(region, fields, Privilege::kRead));
  };
  run({fa, fb});
  const std::size_t lists = forest.field_list_count();
  EXPECT_EQ(lists, 1u);
  for (int i = 0; i < 100; ++i) run({fa, fb});
  EXPECT_EQ(forest.field_list_count(), lists);
  run({fb, fa});
  EXPECT_EQ(forest.field_list_count(), lists + 1);
  rt.wait_all();
  EXPECT_EQ(rt.stats().point_tasks, 102u);
}

TEST(RuntimeTest, DuplicateFieldIsRejected) {
  // A region argument that names a field twice throws before the launch
  // has any effect, on both launch paths, and interns nothing.
  Fixture fx(8, 2);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  EXPECT_THROW(fx.rt.execute(TaskLauncher::for_task(noop).region(fx.region, {fx.fv, fx.fv},
                                                                 Privilege::kRead)),
               RuntimeError);
  EXPECT_THROW(fx.rt.execute_index(IndexLauncher::over(Domain::line(2))
                                       .with_task(noop)
                                       .region(fx.region, fx.blocks,
                                               ProjectionFunctor::identity(1),
                                               {fx.fv, fx.fv}, Privilege::kRead)),
               RuntimeError);
  EXPECT_EQ(fx.rt.forest().field_list_count(), 0u);
  fx.rt.execute(TaskLauncher::for_task(noop).region(fx.region, {fx.fv}, Privilege::kRead));
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.stats().point_tasks, 1u);
}

TEST(RuntimeTest, ChainedLaunchesRunSuccessorsInline) {
  // One worker, four read-write launches over one 8-color partition issued
  // against a paused pool: the chunk jobs run first, then each of launch 1's
  // tasks starts a chain, and every task of launches 2-4 starts on the
  // worker whose completion readied it instead of going through the queue.
  RuntimeConfig cfg;
  cfg.workers = 1;
  Fixture fx(32, 8, cfg);
  {
    Accessor<double> init(fx.rt.forest(), fx.region, fx.fv, Privilege::kWrite);
    for (int64_t i = 0; i < 32; ++i) init.write(Point::p1(i), static_cast<double>(i));
  }
  const TaskFnId inc = fx.rt.register_task("inc", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, acc.read(p) + 1); });
  });
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(8))
          .with_task(inc)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
                  Privilege::kReadWrite);
  fx.rt.pool().pause();
  for (int i = 0; i < 4; ++i) fx.rt.execute_index(launcher);
  fx.rt.pool().resume();
  fx.rt.wait_all();
  const RuntimeStats stats = fx.rt.stats();
  EXPECT_EQ(stats.tasks_inline, 24u);
  EXPECT_EQ(stats.tasks_completed, 32u);
  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  for (int64_t i = 0; i < 32; ++i)
    EXPECT_EQ(acc.read(Point::p1(i)), static_cast<double>(i) + 4) << "element " << i;
}

TEST(RuntimeTest, DisjointPartitionSkipsDomainTests) {
  // Whole-partition reasoning in the tracker: repeated launches over one
  // disjoint partition should need far fewer pairwise dependence tests
  // than the quadratic all-pairs scan.
  Fixture fx(256, 64);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(64))
          .with_task(noop)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1),
                  {fx.fv}, Privilege::kReadWrite);
  for (int i = 0; i < 10; ++i) fx.rt.execute_index(launcher);
  fx.rt.wait_all();
  // Each task conflicts only with its same-color predecessor: the tests
  // performed stay linear in tasks, far below the 64x64 pairwise bound.
  EXPECT_LT(fx.rt.stats().dependence_tests, 10u * 64u * 8u);
}

TEST(RuntimeTest, LaunchStreamDivergenceDetected) {
  // Control replication's launch-stream guard: a replicated descriptor
  // carries the launch id its origin assigned, and a rank whose own next id
  // differs has diverged from the driver's stream and must refuse it.
  Fixture fx(16, 4);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  IndexLauncher index = IndexLauncher::over(Domain::line(4))
                            .with_task(noop)
                            .region(fx.region, fx.blocks,
                                    ProjectionFunctor::identity(1), {fx.fv},
                                    Privilege::kWrite);
  index.trace_ctx = obs::TraceContext{fx.rt.peek_next_launch_id() + 1,
                                      obs::TraceContext::kNone, 0};
  EXPECT_THROW(fx.rt.execute_index(index), RuntimeError);

  TaskLauncher single = TaskLauncher::for_task(noop);
  single.trace_ctx = obs::TraceContext{fx.rt.peek_next_launch_id() + 1,
                                       obs::TraceContext::kNone, 0};
  EXPECT_THROW(fx.rt.execute(single), RuntimeError);

  // Stamped with the id this runtime assigns next, both are accepted.
  index.trace_ctx.launch = fx.rt.peek_next_launch_id();
  EXPECT_NO_THROW(fx.rt.execute_index(index));
  single.trace_ctx.launch = fx.rt.peek_next_launch_id();
  EXPECT_NO_THROW(fx.rt.execute(single));
  fx.rt.wait_all();
  EXPECT_TRUE(fx.rt.fault_report().ok());
}

}  // namespace
}  // namespace idxl
