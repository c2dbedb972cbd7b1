// The RuntimeApi facade contract: one workload, written once against the
// interface, must produce identical results on the local, sharded
// (in-process ranks) and distributed (forked ranks) backends, and
// make_runtime() must honour config and $IDXL_BACKEND.
#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <cstddef>
#include <cstdlib>
#include <vector>

#include "dist/backend.hpp"
#include "dist/dist_runtime.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"

namespace idxl {
namespace {

constexpr int64_t kElements = 64;
constexpr int64_t kPieces = 8;
constexpr dist::Backend kBackends[] = {dist::Backend::kLocal, dist::Backend::kSharded,
                                       dist::Backend::kDist};

/// The backend-independent workload: fill, one statically-safe launch, one
/// launch only the dynamic check can prove, one single task over the whole
/// region, then read back.
std::vector<double> run_workload(RuntimeApi& rt) {
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(kElements));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId value = forest.allocate_field(fs, sizeof(double), "value");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId pieces = partition_equal(forest, is, Rect::line(kPieces));

  const TaskFnId write_idx = rt.register_task("write_idx", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, static_cast<double>(ctx.point[0] + 1));
    });
  });
  const TaskFnId scale = rt.register_task("scale", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, acc.read(p) * 10.0); });
  });
  const TaskFnId offset = rt.register_task("offset", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, acc.read(p) + 0.5); });
  });

  rt.fill(region, value, -1.0);
  rt.execute_index(IndexLauncher::over(Domain::line(kPieces))
                       .with_task(write_idx)
                       .region(region, pieces, ProjectionFunctor::identity(1),
                               {value}, Privilege::kWrite));
  rt.execute_index(IndexLauncher::over(Domain::line(kPieces))
                       .with_task(scale)
                       .region(region, pieces,
                               ProjectionFunctor::modular1d(3, kPieces),
                               {value}, Privilege::kReadWrite));
  rt.execute(TaskLauncher::for_task(offset).region(region, {value},
                                                   Privilege::kReadWrite));
  rt.wait_all();
  EXPECT_TRUE(rt.fault_report().ok());

  auto acc = rt.read_region<double>(region, value);
  std::vector<double> out;
  for (int64_t i = 0; i < kElements; ++i) out.push_back(acc.read(Point::p1(i)));
  return out;
}

std::vector<double> expected() {
  std::vector<double> out;
  for (int64_t i = 0; i < kElements; ++i)
    out.push_back(static_cast<double>(i / (kElements / kPieces) + 1) * 10.0 +
                  0.5);
  return out;
}

TEST(RuntimeApiTest, SameWorkloadOnEveryBackend) {
  for (const dist::Backend backend : kBackends) {
    dist::BackendConfig config;
    config.backend = backend;
    config.runtime.workers = 2;
    config.dist.ranks = 3;
    const auto rt = dist::make_runtime(config);
    ASSERT_NE(rt, nullptr);
    EXPECT_EQ(run_workload(*rt), expected())
        << "backend=" << dist::backend_name(backend);
  }
}

TEST(RuntimeApiTest, StatsMapOntoCommonShape) {
  dist::BackendConfig config;
  config.runtime.workers = 2;
  for (const dist::Backend backend : kBackends) {
    config.backend = backend;
    const auto rt = dist::make_runtime(config);
    run_workload(*rt);
    const RuntimeStats stats = rt->stats();
    // Two index launches expanded to kPieces point tasks each, plus the fill
    // and the single task — every backend reports through the same
    // counters (the replicated backends report rank 0's replica, which
    // issues every point).
    EXPECT_GE(stats.index_launches, 2u) << dist::backend_name(backend);
    EXPECT_GE(stats.point_tasks, static_cast<uint64_t>(2 * kPieces));
    EXPECT_EQ(stats.tasks_failed, 0u);
  }
}

TEST(RuntimeApiTest, InProcessRanksRunInTheCallingProcess) {
  // One point per rank records the pid that ran it. The sharded backend's
  // ranks are threads of this process; the dist backend forks them.
  for (const dist::Backend backend : {dist::Backend::kSharded, dist::Backend::kDist}) {
    dist::BackendConfig config;
    config.backend = backend;
    config.runtime.workers = 1;
    config.dist.ranks = 4;
    const auto rt = dist::make_runtime(config);
    auto& forest = rt->forest();
    const IndexSpaceId is = forest.create_index_space(Domain::line(4));
    const FieldSpaceId fs = forest.create_field_space();
    const FieldId pid = forest.allocate_field(fs, sizeof(double), "pid");
    const RegionId region = forest.create_region(is, fs);
    const PartitionId cells = partition_equal(forest, is, Rect::line(4));
    const TaskFnId record = rt->register_task("record", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each(
          [&](const Point& p) { acc.write(p, static_cast<double>(::getpid())); });
    });
    rt->execute_index(IndexLauncher::over(Domain::line(4))
                          .with_task(record)
                          .region(region, cells, ProjectionFunctor::identity(1),
                                  {pid}, Privilege::kWrite));
    auto acc = rt->read_region<double>(region, pid);
    const auto self = static_cast<double>(::getpid());
    EXPECT_EQ(acc.read(Point::p1(0)), self) << dist::backend_name(backend);
    for (int64_t r = 1; r < 4; ++r) {
      if (backend == dist::Backend::kSharded) {
        EXPECT_EQ(acc.read(Point::p1(r)), self) << "rank " << r;
      } else {
        EXPECT_NE(acc.read(Point::p1(r)), self) << "rank " << r;
      }
    }
  }
}

TEST(RuntimeApiTest, InProcessRanksDefaultToOnePoolThreadEach) {
  // workers == 0 means one pool thread per core for a process of its own;
  // in-process ranks share the cores, so each rank gets one thread instead.
  dist::BackendConfig config;
  config.backend = dist::Backend::kSharded;
  config.dist.ranks = 4;
  const auto rt = dist::make_runtime(config);
  auto& dist_rt = dynamic_cast<dist::DistributedRuntime&>(*rt);
  auto& forest = rt->forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(4));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId f = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(is, fs);
  rt->fill(region, f, 1.0);
  EXPECT_EQ(dist_rt.local().config().workers, 1u);
}

TEST(RuntimeApiTest, ShardedSingleTaskLaunchRuns) {
  // A single-task launch needs no partition: on the sharded backend it runs
  // on rank 0 after the index launch whose points ran on every rank, and
  // sees all of their writes over either data plane.
  for (const bool delta : {true, false}) {
    dist::BackendConfig config;
    config.backend = dist::Backend::kSharded;
    config.runtime.workers = 1;
    config.dist.ranks = 3;
    config.dist.delta_transfers = delta;
    const auto rt = dist::make_runtime(config);
    auto& forest = rt->forest();
    const IndexSpaceId is = forest.create_index_space(Domain::line(kElements));
    const FieldSpaceId fs = forest.create_field_space();
    const FieldId value = forest.allocate_field(fs, sizeof(double), "value");
    const RegionId region = forest.create_region(is, fs);
    const PartitionId pieces = partition_equal(forest, is, Rect::line(kPieces));
    const TaskFnId write_idx = rt->register_task("write_idx", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each([&](const Point& p) {
        acc.write(p, static_cast<double>(ctx.point[0] + 1));
      });
    });
    const TaskFnId prefix_sum = rt->register_task("prefix_sum", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      double sum = 0;
      ctx.region(0).domain().for_each([&](const Point& p) {
        sum += acc.read(p);
        acc.write(p, sum);
      });
    });

    rt->execute_index(IndexLauncher::over(Domain::line(kPieces))
                          .with_task(write_idx)
                          .region(region, pieces, ProjectionFunctor::identity(1),
                                  {value}, Privilege::kWrite));
    rt->execute(TaskLauncher::for_task(prefix_sum)
                    .region(region, {value}, Privilege::kReadWrite));
    rt->wait_all();
    EXPECT_TRUE(rt->fault_report().ok()) << "delta=" << delta;

    auto acc = rt->read_region<double>(region, value);
    double sum = 0;
    for (int64_t i = 0; i < kElements; ++i) {
      sum += static_cast<double>(i / (kElements / kPieces) + 1);
      EXPECT_EQ(acc.read(Point::p1(i)), sum) << "delta=" << delta << " i=" << i;
    }
  }
}

TEST(RuntimeApiTest, RunContractOnEveryBackend) {
  // RuntimeApi::run = program + fence + merged report, on any backend.
  for (const dist::Backend backend : kBackends) {
    dist::BackendConfig config;
    config.backend = backend;
    config.runtime.workers = 2;
    const auto rt = dist::make_runtime(config);
    std::vector<double> got;
    const FaultReport report =
        rt->run([&](RuntimeApi& api) { got = run_workload(api); });
    EXPECT_TRUE(report.ok()) << dist::backend_name(backend);
    EXPECT_EQ(got, expected()) << dist::backend_name(backend);
  }
}

TEST(RuntimeApiTest, BadFillPatternThrowsOnEveryBackend) {
  // fill_bytes_region takes raw bytes (idxl-served forwards a client's
  // kFill pattern), so every backend refuses a pattern that does not match
  // the field's size or does not fit the fill task's arguments — before any
  // rank sees the fill — and keeps running.
  for (const dist::Backend backend : kBackends) {
    SCOPED_TRACE(dist::backend_name(backend));
    dist::BackendConfig config;
    config.backend = backend;
    config.runtime.workers = 2;
    config.dist.ranks = 3;
    const auto rt = dist::make_runtime(config);
    auto& forest = rt->forest();
    const IndexSpaceId is = forest.create_index_space(Domain::line(kElements));
    const FieldSpaceId fs = forest.create_field_space();
    const FieldId value = forest.allocate_field(fs, sizeof(double), "value");
    const FieldId wide = forest.allocate_field(fs, 32, "wide");
    const RegionId region = forest.create_region(is, fs);
    const PartitionId pieces = partition_equal(forest, is, Rect::line(kPieces));
    const TaskFnId write_idx = rt->register_task("write_idx", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each([&](const Point& p) {
        acc.write(p, static_cast<double>(ctx.point[0] + 1));
      });
    });

    rt->fill(region, value, -1.0);
    const int32_t narrow = 7;
    EXPECT_THROW(rt->fill_bytes_region(region, value, &narrow, sizeof(narrow)),
                 RuntimeError);
    const std::array<std::byte, 32> oversize{};
    EXPECT_THROW(rt->fill_bytes_region(region, wide, oversize.data(), oversize.size()),
                 RuntimeError);

    rt->execute_index(IndexLauncher::over(Domain::line(kPieces))
                          .with_task(write_idx)
                          .region(region, pieces, ProjectionFunctor::identity(1),
                                  {value}, Privilege::kWrite));
    rt->wait_all();
    EXPECT_TRUE(rt->fault_report().ok());
    auto acc = rt->read_region<double>(region, value);
    for (int64_t i = 0; i < kElements; ++i)
      EXPECT_EQ(acc.read(Point::p1(i)),
                static_cast<double>(i / (kElements / kPieces) + 1));
  }
}

TEST(RuntimeApiTest, EnvSelectsBackend) {
  ASSERT_EQ(setenv("IDXL_BACKEND", "sharded", 1), 0);
  ASSERT_EQ(setenv("IDXL_DIST_RANKS", "3", 1), 0);
  auto rt = dist::make_runtime();
  auto* dist_rt = dynamic_cast<dist::DistributedRuntime*>(rt.get());
  ASSERT_NE(dist_rt, nullptr);
  EXPECT_TRUE(dist_rt->in_process());
  EXPECT_EQ(dist_rt->ranks(), 3u);

  ASSERT_EQ(setenv("IDXL_BACKEND", "dist", 1), 0);
  ASSERT_EQ(setenv("IDXL_DIST_RANKS", "1", 1), 0);
  rt = dist::make_runtime();
  dist_rt = dynamic_cast<dist::DistributedRuntime*>(rt.get());
  ASSERT_NE(dist_rt, nullptr);
  EXPECT_FALSE(dist_rt->in_process());
  EXPECT_EQ(dist_rt->ranks(), 1u);

  // Rank counts parse strictly: trailing characters and values that do not
  // fit 32 bits are refused, not truncated or wrapped.
  for (const char* bad : {"2x", "4294967298", "0", "-1"}) {
    ASSERT_EQ(setenv("IDXL_DIST_RANKS", bad, 1), 0);
    EXPECT_THROW(dist::make_runtime(), RuntimeError) << bad;
  }

  ASSERT_EQ(setenv("IDXL_BACKEND", "local", 1), 0);
  rt = dist::make_runtime();
  EXPECT_NE(dynamic_cast<Runtime*>(rt.get()), nullptr);

  ASSERT_EQ(setenv("IDXL_BACKEND", "bogus", 1), 0);
  EXPECT_THROW(dist::make_runtime(), RuntimeError);
  ASSERT_EQ(unsetenv("IDXL_BACKEND"), 0);
  ASSERT_EQ(unsetenv("IDXL_DIST_RANKS"), 0);
}

TEST(RuntimeApiTest, DeprecatedFutureShimStillWorks) {
  // Future::get(Runtime&) predates RuntimeApi::get; both resolve the same
  // reduction.
  Runtime rt;
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(8));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId f = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId pieces = partition_equal(forest, is, Rect::line(8));
  const TaskFnId one = rt.register_task("one", [](TaskContext& ctx) {
    ctx.return_value = 1.0;
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, 1.0); });
  });
  const LaunchResult r = rt.execute_index(
      IndexLauncher::over(Domain::line(8))
          .with_task(one)
          .reduce(ReductionOp::kSum)
          .region(region, pieces, ProjectionFunctor::identity(1), {f},
                  Privilege::kWrite));
  ASSERT_TRUE(r.future.valid());
  EXPECT_EQ(rt.get(r.future), 8.0);       // the RuntimeApi way
  EXPECT_EQ(r.future.get(rt), 8.0);       // the deprecated shim
}

}  // namespace
}  // namespace idxl
