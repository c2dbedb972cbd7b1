// Tests for the dependence analysis of index launches (the paper's parallel
// task groups, hence the suite name) and the bulk point-task expansion path:
// §5's whole-partition rule inside the one tracker, the overlap-index lookup
// a mixed tree falls back to, live dependence_tests stats,
// ThreadPool::submit_batch and the linear-time task-graph DOT export.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "runtime/thread_pool.hpp"

namespace idxl {
namespace {

struct Fixture {
  Runtime rt;
  IndexSpaceId is;
  FieldSpaceId fs;
  FieldId fv = 0;
  FieldId fw = 0;
  RegionId region;
  PartitionId blocks;

  explicit Fixture(int64_t n, int64_t pieces, RuntimeConfig cfg = {}) : rt(cfg) {
    auto& forest = rt.forest();
    is = forest.create_index_space(Domain::line(n));
    fs = forest.create_field_space();
    fv = forest.allocate_field(fs, sizeof(double), "v");
    fw = forest.allocate_field(fs, sizeof(double), "w");
    region = forest.create_region(is, fs);
    blocks = partition_equal(forest, is, Rect::line(pieces));
  }
};

TaskFnId register_bump(Runtime& rt) {
  return rt.register_task("bump", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, acc.read(p) + 1.0); });
  });
}

// ---------- one disjoint partition ----------

TEST(GroupDependenceTest, DisjointLaunchesTakeGroupPath) {
  Fixture fx(64, 16);
  const TaskFnId bump = register_bump(fx.rt);
  fx.rt.fill(fx.region, fx.fv, 0.0);
  fx.rt.wait_all();  // fence: the fill's root use is forgotten

  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(16))
          .with_task(bump)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
                  Privilege::kReadWrite);
  // Paused, so every use stays live: each point of launches 2 and 3 meets
  // exactly one use, its own color's last writer.
  fx.rt.pool().pause();
  for (int i = 0; i < 3; ++i) fx.rt.execute_index(launcher);
  fx.rt.pool().resume();
  fx.rt.wait_all();

  const RuntimeStats stats = fx.rt.stats();
  EXPECT_EQ(stats.dependence_tests, 2u * 16u);
  EXPECT_EQ(stats.dependence_edges, 2u * 16u);
  EXPECT_EQ(stats.point_tasks, 3u * 16u + 1u);  // +1 fill

  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  Domain::line(64).for_each(
      [&](const Point& p) { EXPECT_DOUBLE_EQ(acc.read(p), 3.0); });
}

TEST(GroupDependenceTest, GroupEdgesScaleWithArgsNotPoints) {
  Fixture fx(1024, 256);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(256))
          .with_task(noop)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
                  Privilege::kReadWrite);
  for (int i = 0; i < 10; ++i) fx.rt.execute_index(launcher);
  fx.rt.wait_all();

  const RuntimeStats stats = fx.rt.stats();
  // Each point chains only to its same-color predecessor: the per-use walks
  // stay linear in tasks, and so do the emitted edges (predecessors that
  // already completed are legitimately dropped, so these are upper bounds).
  EXPECT_LE(stats.dependence_tests, 10u * 256u);
  EXPECT_LE(stats.dependence_edges, 9u * 256u);
}

TEST(GroupDependenceTest, ReadOnlyLaunchesSkipTheWalkEntirely) {
  Fixture fx(64, 16);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  const IndexLauncher reader =
      IndexLauncher::over(Domain::line(16))
          .with_task(noop)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
                  Privilege::kRead);
  for (int i = 0; i < 5; ++i) fx.rt.execute_index(reader);
  fx.rt.wait_all();
  const RuntimeStats stats = fx.rt.stats();
  // Reader-vs-reader never conflicts: a reader tests writers only, and
  // there are none.
  EXPECT_EQ(stats.dependence_tests, 0u);
  EXPECT_EQ(stats.dependence_edges, 0u);
}

// ---------- mixed trees: candidates from the overlap index ----------

TEST(GroupDependenceTest, AliasedPartitionFallsBack) {
  Fixture fx(64, 8);
  PartitionId halo = partition_halo(fx.rt.forest(), fx.is, fx.blocks, 1);
  const TaskFnId stencil = fx.rt.register_task("stencil", [](TaskContext& ctx) {
    auto out = ctx.region(0).accessor<double>(0);
    auto in = ctx.region(1).accessor<double>(1);
    double sum = 0.0;
    ctx.region(1).domain().for_each([&](const Point& p) { sum += in.read(p); });
    ctx.region(0).domain().for_each(
        [&](const Point& p) { out.write(p, out.read(p) + sum); });
  });
  fx.rt.fill(fx.region, fx.fv, 0.0);
  fx.rt.fill(fx.region, fx.fw, 1.0);
  fx.rt.wait_all();

  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(8))
          .with_task(stencil)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
                  Privilege::kReadWrite)
          .region(fx.region, halo, ProjectionFunctor::identity(1), {fx.fw},
                  Privilege::kRead);
  const LaunchResult result = fx.rt.execute_index(launcher);
  fx.rt.wait_all();

  // Safe; the halo argument marks the tree mixed, so both arguments look
  // their candidates up in the overlap index.
  EXPECT_TRUE(result.ran_as_index_launch);
  // Interior blocks read radius-1 halos of 8 ones; boundary blocks one less.
  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(0)), 9.0);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(12)), 10.0);
}

TEST(GroupDependenceTest, OpaqueFunctorFallsBack) {
  // An opaque functor falls back to the dynamic safety check. Dependence
  // does not care how a color was chosen: the uses are still colors of one
  // disjoint partition.
  Fixture fx(64, 16);
  const TaskFnId bump = register_bump(fx.rt);
  const IndexLauncher launcher = IndexLauncher::over(Domain::line(16))
                                     .with_task(bump)
                                     .region(fx.region, fx.blocks,
                                             ProjectionFunctor::opaque(
                                                 [](const Point& p) {
                                                   return Point::p1(15 - p[0]);
                                                 },
                                                 1),
                                             {fx.fv}, Privilege::kReadWrite);
  fx.rt.pool().pause();
  const LaunchResult result = fx.rt.execute_index(launcher);
  fx.rt.execute_index(launcher);
  fx.rt.pool().resume();
  fx.rt.wait_all();
  EXPECT_TRUE(result.ran_as_index_launch);
  EXPECT_EQ(result.safety.outcome, SafetyOutcome::kSafeDynamic);
  EXPECT_EQ(fx.rt.stats().dependence_edges, 16u);
}

// ---------- other uses of a tree, before the next fence ----------

TEST(GroupDependenceTest, SingleTaskMaterializesGroupState) {
  Fixture fx(64, 16);
  const TaskFnId init = fx.rt.register_task("init", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  const TaskFnId sum_task = fx.rt.register_task("sum", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    double sum = 0.0;
    ctx.region(0).domain().for_each([&](const Point& p) { sum += acc.read(p); });
    ctx.return_value = sum;
  });

  fx.rt.execute_index(
      IndexLauncher::over(Domain::line(16))
          .with_task(init)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
                  Privilege::kWrite));
  // Single-task read of the whole region: a root use marks the tree mixed,
  // and the overlap index finds all 16 writers.
  const LaunchResult sum_result =
      fx.rt.execute(TaskLauncher::for_task(sum_task)
                        .region(fx.region, {fx.fv}, Privilege::kRead)
                        .reduce(ReductionOp::kSum));
  EXPECT_DOUBLE_EQ(sum_result.future.get(fx.rt), 63.0 * 64.0 / 2.0);

  // The whole-region read collected an edge to each still-live writer.
  const uint64_t before = fx.rt.stats().dependence_edges;
  EXPECT_LE(before, 16u);

  // Future::get's wait_all fenced the tracker: the tree is on no partition
  // again, and the second of two launches through the blocks orders each
  // point after the last writer of its own color only.
  fx.rt.pool().pause();
  for (int i = 0; i < 2; ++i)
    fx.rt.execute_index(
        IndexLauncher::over(Domain::line(16))
            .with_task(init)
            .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
                    Privilege::kWrite));
  const uint64_t after = fx.rt.stats().dependence_edges;
  fx.rt.pool().resume();
  fx.rt.wait_all();
  EXPECT_EQ(after - before, 16u);
}

TEST(GroupDependenceTest, ContaminatedTreeFallsBackUntilFence) {
  Fixture fx(64, 16);
  const TaskFnId bump = register_bump(fx.rt);
  // The fill is a root use before any launch through the blocks: it must
  // mark the tree mixed, or the launch would take its own color as its only
  // candidate and miss its edge to the fill.
  fx.rt.fill(fx.region, fx.fv, 5.0);
  fx.rt.execute_index(
      IndexLauncher::over(Domain::line(16))
          .with_task(bump)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
                  Privilege::kReadWrite));
  fx.rt.wait_all();
  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  EXPECT_DOUBLE_EQ(acc.read(Point::p1(13)), 6.0);
}

// ---------- live stats (satellite) ----------

TEST(GroupDependenceTest, DependenceTestsAreLiveMidRun) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  Fixture fx(64, 16, cfg);
  std::atomic<bool> release{false};
  const TaskFnId gated = fx.rt.register_task("gated", [&release](TaskContext&) {
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(16))
          .with_task(gated)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
                  Privilege::kReadWrite);
  fx.rt.execute_index(launcher);
  fx.rt.execute_index(launcher);
  // No wait_all has run: the counter must already reflect the issue-time
  // walks (it used to be synced only inside wait_all).
  const RuntimeStats mid = fx.rt.stats();
  EXPECT_GE(mid.dependence_tests, 16u);
  release.store(true, std::memory_order_release);
  fx.rt.wait_all();
}

// ---------- submit_batch (satellite) ----------

TEST(ThreadPoolTest, SubmitBatchRunsEveryJob) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 100; ++i)
    jobs.push_back([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.submit_batch(std::move(jobs));
  pool.submit_batch({});  // empty batch is a no-op
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

// ---------- DOT export (satellite) ----------

TEST(GroupDependenceTest, DotExportOfLargeGraphIsBounded) {
  RuntimeConfig cfg;
  cfg.enable_profiling = true;
  Fixture fx(4096, 1024, cfg);
  const TaskFnId noop = fx.rt.register_task("noop", [](TaskContext&) {});
  const IndexLauncher launcher =
      IndexLauncher::over(Domain::line(1024))
          .with_task(noop)
          .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {fx.fv},
                  Privilege::kReadWrite);
  for (int i = 0; i < 10; ++i) fx.rt.execute_index(launcher);
  fx.rt.wait_all();
  ASSERT_EQ(fx.rt.profiler().task_samples().size(), 10240u);

  const auto start = std::chrono::steady_clock::now();
  const std::string dot = fx.rt.profiler().task_graph_dot();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Linear-time export: a 10k-node graph is milliseconds. The bound is
  // generous (CI noise), but the old quadratic string building would be
  // orders of magnitude past any per-node budget.
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
            2000);
  EXPECT_NE(dot.find("digraph tasks"), std::string::npos);
  EXPECT_NE(dot.find("t10239"), std::string::npos);
}

// ---------- differential stress: index launches vs No-IDX ----------

// A randomized launch sequence, issued identically under several configs.
struct ProgramOp {
  enum Kind { kBump, kShiftRead, kHaloRead, kOpaqueBump } kind = kBump;
  int64_t shift = 0;   // modular functor offset
  FieldId field = 0;   // primary field
};

/// The field ids a program op's task body should touch (arg bodies can't
/// hardcode ids: ops swap the roles of the two fields).
struct FieldPair {
  FieldId a = 0;
  FieldId b = 0;
};

std::vector<ProgramOp> random_program(uint32_t seed, std::size_t n_ops) {
  std::mt19937 rng(seed);
  std::vector<ProgramOp> ops(n_ops);
  for (ProgramOp& op : ops) {
    op.kind = static_cast<ProgramOp::Kind>(rng() % 4);
    op.shift = static_cast<int64_t>(rng() % 8);
    op.field = rng() % 2;
  }
  return ops;
}

// Issue `ops` against `fx` (8 pieces over 64 elements).
void issue_program(Fixture& fx, const std::vector<ProgramOp>& ops,
                   TaskFnId gated_touch, PartitionId halo) {
  for (const ProgramOp& op : ops) {
    const FieldId f = op.field == 0 ? fx.fv : fx.fw;
    const FieldId g = op.field == 0 ? fx.fw : fx.fv;
    IndexLauncher launcher = IndexLauncher::over(Domain::line(8)).with_task(gated_touch);
    launcher.scalars(FieldPair{f, g});
    switch (op.kind) {
      case ProgramOp::kBump:
        launcher.region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {f},
                        Privilege::kReadWrite);
        break;
      case ProgramOp::kShiftRead:
        // Update f through identity while reading g through a rotation:
        // different fields, so safe.
        launcher
            .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {f},
                    Privilege::kReadWrite)
            .region(fx.region, fx.blocks, ProjectionFunctor::modular1d(op.shift, 8),
                    {g}, Privilege::kRead);
        break;
      case ProgramOp::kHaloRead:
        launcher
            .region(fx.region, fx.blocks, ProjectionFunctor::identity(1), {f},
                    Privilege::kReadWrite)
            .region(fx.region, halo, ProjectionFunctor::identity(1), {g},
                    Privilege::kRead);
        break;
      case ProgramOp::kOpaqueBump:
        launcher.region(
            fx.region, fx.blocks,
            ProjectionFunctor::opaque(
                [shift = op.shift](const Point& p) {
                  return Point::p1((p[0] + shift) % 8);
                },
                1),
            {f}, Privilege::kReadWrite);
        break;
    }
    fx.rt.execute_index(launcher);
  }
}

// Deterministic arithmetic bodies: under any legal schedule that preserves
// the discovered edges, the final region contents are a pure function of
// the program. Compares index launches against the No-IDX task loop, with
// traces and fills mixed in.
TEST(DifferentialTest, RegionContentsMatchAcrossConfigs) {
  for (uint32_t seed = 10; seed <= 13; ++seed) {
    const std::vector<ProgramOp> ops = random_program(seed, 18);
    std::vector<std::vector<double>> contents;
    for (int variant = 0; variant < 2; ++variant) {
      RuntimeConfig cfg;
      cfg.enable_index_launches = variant == 0;
      Fixture fx(64, 8, cfg);
      PartitionId halo = partition_halo(fx.rt.forest(), fx.is, fx.blocks, 1);
      const TaskFnId touch = fx.rt.register_task("touch", [](TaskContext& ctx) {
        const auto& fp = ctx.arg<FieldPair>();
        auto acc = ctx.region(0).accessor<double>(fp.a);
        double extra = 0.0;
        if (ctx.regions.size() > 1) {
          auto in = ctx.region(1).accessor<double>(fp.b);
          ctx.region(1).domain().for_each(
              [&](const Point& p) { extra += in.read(p); });
        }
        ctx.region(0).domain().for_each([&](const Point& p) {
          acc.write(p, acc.read(p) * 0.5 + extra + static_cast<double>(p[0]));
        });
      });
      fx.rt.fill(fx.region, fx.fv, 1.0);
      fx.rt.fill(fx.region, fx.fw, 2.0);
      fx.rt.wait_all();

      issue_program(fx, ops, touch, halo);
      // Trace a fixed safe segment twice: first pass captures, second pass
      // replays it.
      const std::vector<ProgramOp> segment = random_program(seed + 100, 4);
      for (int rep = 0; rep < 2; ++rep) {
        fx.rt.begin_trace(seed);
        issue_program(fx, segment, touch, halo);
        fx.rt.end_trace(seed);
      }
      issue_program(fx, ops, touch, halo);
      fx.rt.wait_all();

      std::vector<double> values;
      for (FieldId f : {fx.fv, fx.fw}) {
        auto acc = fx.rt.read_region<double>(fx.region, f);
        Domain::line(64).for_each([&](const Point& p) { values.push_back(acc.read(p)); });
      }
      contents.push_back(std::move(values));
    }
    EXPECT_EQ(contents[0], contents[1]) << "seed " << seed << " (No-IDX)";
  }
}

}  // namespace
}  // namespace idxl
