// Dynamic control replication on in-process ranks (DistConfig::in_process,
// the `sharded` backend): every worker rank is a thread of this process
// with its own Runtime and its own forest, talking to the driver over the
// same socketpair links and wire protocol as fork mode. The programs —
// a 1-D halo stencil and a sparse DOM wavefront — are checked against
// serial references, and the cluster view shows replicated issuance with
// partitioned execution. No rank forks, so the TSan build covers the whole
// replicated path.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "dist/dist_runtime.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"

namespace idxl::dist {
namespace {

DistConfig in_process(uint32_t ranks, bool delta = true) {
  DistConfig dc;
  dc.ranks = ranks;
  dc.in_process = true;
  dc.delta_transfers = delta;
  dc.runtime.workers = 1;
  return dc;
}

/// The 1-D halo program: init, then per iteration a three-point stencil
/// from field v into w through the halo partition and a copy back.
struct HaloFixture {
  DistributedRuntime rt;
  FieldId fv = 0, fw = 0;
  RegionId grid;
  PartitionId blocks;
  PartitionId halos;
  TaskFnId init = 0, step = 0, copy = 0;

  HaloFixture(DistConfig cfg, int64_t n, int64_t pieces) : rt(std::move(cfg)) {
    auto& forest = rt.forest();
    const IndexSpaceId is = forest.create_index_space(Domain::line(n));
    const FieldSpaceId fs = forest.create_field_space();
    fv = forest.allocate_field(fs, sizeof(double), "v");
    fw = forest.allocate_field(fs, sizeof(double), "w");
    grid = forest.create_region(is, fs);
    blocks = partition_equal(forest, is, Rect::line(pieces));
    halos = partition_halo(forest, is, blocks, 1);

    init = rt.register_task("init", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each(
          [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
    });
    step = rt.register_task("step", [](TaskContext& ctx) {
      auto in = ctx.region(0).accessor<double>(0);
      auto out = ctx.region(1).accessor<double>(1);
      const Domain& halo = ctx.region(0).domain();
      ctx.region(1).domain().for_each([&](const Point& p) {
        double v = in.read(p);
        const Point l = Point::p1(p[0] - 1), r = Point::p1(p[0] + 1);
        if (halo.contains(l)) v += in.read(l);
        if (halo.contains(r)) v += in.read(r);
        out.write(p, v);
      });
    });
    copy = rt.register_task("copy", [](TaskContext& ctx) {
      auto in = ctx.region(0).accessor<double>(1);
      auto out = ctx.region(1).accessor<double>(0);
      ctx.region(1).domain().for_each([&](const Point& p) { out.write(p, in.read(p)); });
    });
  }

  void issue_init(RuntimeApi& api, int64_t pieces) const {
    api.execute_index(IndexLauncher::over(Domain::line(pieces))
                          .with_task(init)
                          .region(grid, blocks, ProjectionFunctor::identity(1),
                                  {fv}, Privilege::kWrite));
  }

  void issue_iterations(RuntimeApi& api, int64_t pieces, int iterations) const {
    const auto id = ProjectionFunctor::identity(1);
    for (int it = 0; it < iterations; ++it) {
      api.execute_index(IndexLauncher::over(Domain::line(pieces))
                            .with_task(step)
                            .region(grid, halos, id, {fv}, Privilege::kRead)
                            .region(grid, blocks, id, {fw}, Privilege::kWrite));
      api.execute_index(IndexLauncher::over(Domain::line(pieces))
                            .with_task(copy)
                            .region(grid, blocks, id, {fw}, Privilege::kRead)
                            .region(grid, blocks, id, {fv}, Privilege::kWrite));
    }
  }

  void issue_program(RuntimeApi& api, int64_t pieces, int iterations) const {
    issue_init(api, pieces);
    issue_iterations(api, pieces, iterations);
  }

  std::vector<double> values(int64_t n) {
    auto acc = rt.read_region<double>(grid, fv);
    std::vector<double> out;
    for (int64_t i = 0; i < n; ++i) out.push_back(acc.read(Point::p1(i)));
    return out;
  }
};

std::vector<double> serial_reference(int64_t n, int iterations) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int64_t i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = static_cast<double>(i);
  for (int it = 0; it < iterations; ++it) {
    std::vector<double> next(static_cast<std::size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      double x = v[static_cast<std::size_t>(i)];
      if (i > 0) x += v[static_cast<std::size_t>(i - 1)];
      if (i < n - 1) x += v[static_cast<std::size_t>(i + 1)];
      next[static_cast<std::size_t>(i)] = x;
    }
    v = std::move(next);
  }
  return v;
}

/// (ranks, pieces, delta data plane)
class InProcessStencil
    : public ::testing::TestWithParam<std::tuple<uint32_t, int64_t, bool>> {};

TEST_P(InProcessStencil, MatchesSerialReferenceAcrossRankCounts) {
  const auto [ranks, pieces, delta] = GetParam();
  const int64_t n = 48;
  const int iterations = 6;
  HaloFixture fx(in_process(ranks, delta), n, pieces);
  const FaultReport report =
      fx.rt.run([&](RuntimeApi& api) { fx.issue_program(api, pieces, iterations); });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(fx.values(n), serial_reference(n, iterations));
}

INSTANTIATE_TEST_SUITE_P(
    Configs, InProcessStencil,
    ::testing::Values(std::make_tuple(1u, 8, false), std::make_tuple(2u, 8, false),
                      std::make_tuple(4u, 8, false), std::make_tuple(3u, 6, false),
                      std::make_tuple(8u, 8, false),
                      // Delta data plane: halo strips routed between ranks.
                      std::make_tuple(1u, 8, true), std::make_tuple(2u, 8, true),
                      std::make_tuple(4u, 8, true), std::make_tuple(3u, 6, true),
                      std::make_tuple(8u, 8, true)));

TEST(InProcessRanksTest, HaloReadsMoveDataAcrossRanks) {
  // Halo reads at rank boundaries need neighbor ranks' bytes: the delta
  // plane routes exactly those strips, the star-hub plane broadcasts whole
  // outcomes and plans no transfers at all.
  HaloFixture delta(in_process(4, /*delta=*/true), 48, 8);
  delta.rt.run([&](RuntimeApi& api) { delta.issue_program(api, 8, 3); });
  const DataPlaneStats routed = delta.rt.data_plane_stats();
  EXPECT_GT(routed.transfers, 0u);
  EXPECT_GT(routed.bytes_delta(), 0u);
  EXPECT_EQ(routed.bytes_hub, 0u);

  HaloFixture hub(in_process(4, /*delta=*/false), 48, 8);
  hub.rt.run([&](RuntimeApi& api) { hub.issue_program(api, 8, 3); });
  const DataPlaneStats broadcast = hub.rt.data_plane_stats();
  EXPECT_EQ(broadcast.transfers, 0u);
  EXPECT_GT(broadcast.bytes_hub, 0u);
  EXPECT_EQ(delta.values(48), hub.values(48));
}

TEST(InProcessRanksTest, TransfersNeedNoDirective) {
  // Every rank plans the delta plane from its own copy of the launch
  // stream, so a transfer costs the driver no frame: besides outcomes,
  // relayed payloads, heartbeats and fences, rank 1 receives exactly one
  // frame per launch, its descriptor.
  const int64_t pieces = 4;
  HaloFixture fx(in_process(2, /*delta=*/true), 24, pieces);
  fx.issue_program(fx.rt, pieces, 3);
  fx.rt.wait_all();
  const uint64_t launches = 1 + 3 * 2;

  const obs::MetricsSnapshot snap = fx.rt.metrics().snapshot();
  const obs::FamilySnapshot* frames = snap.family("idxl_net_frames_sent_total");
  ASSERT_NE(frames, nullptr);
  const std::set<std::string> per_outcome = {"task-done", "region-data", "ping", "fence"};
  std::map<std::string, uint64_t> control;  // frame type -> frames to rank 1
  for (const obs::SeriesSnapshot& s : frames->series) {
    const obs::Labels& l = s.labels;
    const auto label = [&](const std::string& key) {
      const auto it = std::find_if(l.begin(), l.end(),
                                   [&](const auto& kv) { return kv.first == key; });
      return it == l.end() ? std::string() : it->second;
    };
    if (label("peer") == "rank-1" && per_outcome.count(label("type")) == 0)
      control[label("type")] += s.counter;
  }
  EXPECT_EQ(control, (std::map<std::string, uint64_t>{{"launch", launches}}));
  EXPECT_GT(fx.rt.data_plane_stats().transfers, 0u);
  EXPECT_EQ(fx.values(24), serial_reference(24, 3));
}

/// task-done frames rank 0 sent to `worker` (its own registry's series).
uint64_t task_done_to(DistributedRuntime& rt, uint32_t worker) {
  return rt.metrics().snapshot().value(
      "idxl_net_frames_sent_total",
      {{"peer", "rank-" + std::to_string(worker)}, {"type", "task-done"}});
}

/// task-done frames worker `rank` sent to the driver, from the cluster view.
uint64_t task_done_from(const obs::MetricsSnapshot& cluster, uint32_t rank) {
  return cluster.value("idxl_net_frames_sent_total",
                       {{"peer", "driver"}, {"rank", std::to_string(rank)}, {"type", "task-done"}});
}

TEST(InProcessRanksTest, OneTaskDoneFramePerLaunchAndOwningRank) {
  // 6 pieces on 3 ranks: each rank owns 2 points of every launch, and each
  // sends one task-done slice per index launch, which the driver relays
  // once to each other worker. Single and transfer tasks still send a slice
  // of one each. The halo reads move one boundary cell per rank boundary
  // and direction per iteration: 0->1, 1->0, 1->2 and 2->1.
  const int64_t pieces = 6;
  const int iterations = 3;
  HaloFixture fx(in_process(3), 36, pieces);
  fx.rt.fill(fx.grid, fx.fw, 0.0);  // a single task on rank 0
  fx.issue_program(fx.rt, pieces, iterations);
  fx.rt.wait_all();
  const uint64_t launches = 1 + 2 * iterations;
  const uint64_t iters = iterations;

  // Rank 0's slice of every launch, and the other worker's relayed, to each
  // worker; the fill's slice of one to both. A transfer's slice skips its
  // source and its destination: 0->1 and the relayed 1->0 reach rank 2 only.
  EXPECT_EQ(task_done_to(fx.rt, 1), 1 + 2 * launches);
  EXPECT_EQ(task_done_to(fx.rt, 2), 1 + 2 * launches + 2 * iters);
  const obs::MetricsSnapshot cluster = fx.rt.cluster_metrics();
  // Each worker's slice of every launch, and one per transfer it sources.
  EXPECT_EQ(task_done_from(cluster, 1), launches + 2 * iters);
  EXPECT_EQ(task_done_from(cluster, 2), launches + iters);
  EXPECT_EQ(fx.rt.data_plane_stats().transfers, 4 * iters);
  EXPECT_EQ(fx.values(36), serial_reference(36, iterations));
}

TEST(InProcessRanksTest, RankWithNoPointsSendsNoSlice) {
  // Two points on three ranks: owner_of gives rank 2 none, so rank 2 sends
  // no slice, while ranks 0 and 1 send one each.
  HaloFixture fx(in_process(3), 12, 2);
  fx.issue_init(fx.rt, 2);
  fx.rt.wait_all();
  const obs::MetricsSnapshot cluster = fx.rt.cluster_metrics();
  EXPECT_EQ(task_done_from(cluster, 1), 1u);
  EXPECT_EQ(task_done_from(cluster, 2), 0u);
  EXPECT_EQ(task_done_to(fx.rt, 1), 1u);  // rank 0's
  EXPECT_EQ(task_done_to(fx.rt, 2), 2u);  // rank 0's and rank 1's, relayed
  EXPECT_EQ(fx.values(12), serial_reference(12, 0));
}

TEST(InProcessRanksTest, WriteOnlyChainAcrossRanksRunsAsTaskLoop) {
  // Every point writes color 0: unsafe, so the launch runs as the task
  // loop, each point ordered after the previous one by a write-after-write
  // edge that crosses the rank boundaries. It has no read half, so the
  // alias test does not flag it and every outcome stays slim; the chain
  // completes only because a task loop's outcomes go out at once.
  DistributedRuntime rt(in_process(3));
  RegionForest& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(12));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId grid = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(4));
  const TaskFnId stamp = rt.register_task("stamp", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(ctx.point[0] + 1)); });
  });
  const LaunchResult r =
      rt.execute_index(IndexLauncher::over(Domain::line(6))
                           .with_task(stamp)
                           .region(grid, blocks, ProjectionFunctor::affine1d(0, 0), {fv},
                                   Privilege::kWrite));
  rt.wait_all();
  EXPECT_FALSE(r.ran_as_index_launch);
  EXPECT_TRUE(rt.fault_report().ok());
  // The serial result: the last point's write wins color 0.
  auto acc = rt.read_region<double>(grid, fv);
  for (int64_t i = 0; i < 3; ++i) EXPECT_EQ(acc.read(Point::p1(i)), 6.0) << i;
}

TEST(InProcessRanksTest, FutureSumMatchesLocalBitForBit) {
  // The return values of a sliced launch that folds a Future ride its
  // slices, one per owning rank, and rank 0 folds them in launch-point
  // order like the local backend does.
  const auto sum = [](RuntimeApi& api) {
    RegionForest& forest = api.forest();
    const IndexSpaceId is = forest.create_index_space(Domain::line(14));
    const FieldSpaceId fs = forest.create_field_space();
    const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
    const RegionId grid = forest.create_region(is, fs);
    const PartitionId blocks = partition_equal(forest, is, Rect::line(7));
    const TaskFnId third = api.register_task("third", [](TaskContext& ctx) {
      ctx.return_value = 1.0 / (3.0 + static_cast<double>(ctx.point[0]));
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, ctx.return_value); });
    });
    const LaunchResult r =
        api.execute_index(IndexLauncher::over(Domain::line(7))
                              .with_task(third)
                              .reduce(ReductionOp::kSum)
                              .region(grid, blocks, ProjectionFunctor::identity(1), {fv},
                                      Privilege::kWrite));
    EXPECT_TRUE(r.ran_as_index_launch);
    return api.get(r.future);
  };
  Runtime local;
  const double expected = sum(local);
  DistributedRuntime rt(in_process(3));
  const double got = sum(rt);
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(expected));
  // Sliced: one frame from each worker carried its three or two values.
  const obs::MetricsSnapshot cluster = rt.cluster_metrics();
  EXPECT_EQ(task_done_from(cluster, 1), 1u);
  EXPECT_EQ(task_done_from(cluster, 2), 1u);
}

TEST(InProcessRanksTest, CrossRankDependenciesExist) {
  // Halo reads cross block boundaries, so under block placement some
  // dependence edges of the replicated task graph run from a task executed
  // on one rank to a task executed on another.
  const int64_t pieces = 8;
  DistConfig cfg = in_process(4, /*delta=*/false);
  cfg.runtime.enable_profiling = true;
  HaloFixture fx(std::move(cfg), 48, pieces);
  fx.rt.run([&](RuntimeApi& api) { fx.issue_program(api, pieces, 3); });

  const obs::ClusterTrace trace = fx.rt.collect_cluster_trace();
  std::map<uint64_t, uint32_t> executed_on;
  for (const obs::RankTrace& rank_trace : trace.ranks)
    for (const ProfileEvent& e : rank_trace.spans)
      if (e.cat == ProfCategory::kTask) executed_on[e.seq] = rank_trace.rank;
  std::set<std::pair<uint64_t, uint64_t>> edges;  // (producer, consumer)
  for (const obs::RankTrace& rank_trace : trace.ranks)
    for (const TaskSample& s : rank_trace.samples)
      for (const uint64_t dep : s.deps) edges.emplace(dep, s.seq);

  uint64_t local = 0, cross = 0;
  for (const auto& [producer, consumer] : edges) {
    ASSERT_TRUE(executed_on.count(producer) && executed_on.count(consumer))
        << "edge " << producer << " -> " << consumer << " has no task span";
    ++(executed_on[producer] == executed_on[consumer] ? local : cross);
  }
  EXPECT_GT(cross, 0u);
  EXPECT_GT(local, 0u);
}

TEST(InProcessRanksTest, FencedPhasesChainState) {
  // A second phase after a fence starts from the first phase's results,
  // wherever the ranks left them: k + k' iterations equal one run of both.
  const int64_t pieces = 4;
  HaloFixture fx(in_process(2), 24, pieces);
  fx.issue_program(fx.rt, pieces, 2);
  fx.rt.wait_all();
  fx.issue_iterations(fx.rt, pieces, 3);
  fx.rt.wait_all();
  EXPECT_EQ(fx.values(24), serial_reference(24, 5));
}

TEST(InProcessRanksTest, SetupAfterFirstLaunchIsRefused) {
  // Worker ranks copy the forest at the first launch. A region created after
  // it exists on the driver only, and it would shift the ids of subregions
  // created later: every launch from then on throws on the driver instead
  // of reaching a worker that cannot resolve its regions.
  for (const bool delta : {false, true}) {
    SCOPED_TRACE(delta ? "delta" : "star-hub");
    HaloFixture fx(in_process(2, delta), 24, 4);
    fx.issue_init(fx.rt, 4);
    fx.rt.wait_all();
    RegionForest& forest = fx.rt.forest();
    const IndexSpaceId is = forest.create_index_space(Domain::line(24));
    const FieldSpaceId fs = forest.create_field_space();
    const FieldId f = forest.allocate_field(fs, sizeof(double), "late");
    const RegionId late = forest.create_region(is, fs);
    EXPECT_THROW(fx.rt.fill(late, f, 1.0), RuntimeError);
    EXPECT_THROW(fx.issue_iterations(fx.rt, 4, 1), RuntimeError);
    // Nothing reached the workers: they are alive and hold the init state.
    fx.rt.wait_all();
    EXPECT_EQ(fx.values(24), serial_reference(24, 0));
  }
}

TEST(InProcessRanksTest, RefusedLaunchLeavesEveryRankUsable) {
  // Rank 0 resolves a launch before it has any effect: a launcher it
  // refuses throws before rank 0 takes a launch id, plans a transfer or
  // creates a subregion, and no worker sees it. So the next launch runs on
  // every rank, whichever data plane moves the data.
  for (const bool delta : {true, false}) {
    SCOPED_TRACE(delta ? "delta" : "star-hub");
    DistributedRuntime rt(in_process(2, delta));
    RegionForest& forest = rt.forest();
    const IndexSpaceId is = forest.create_index_space(Domain::line(64));
    const FieldSpaceId fs = forest.create_field_space();
    const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
    const FieldId missing = fv + 1;  // the field space holds only fv
    const RegionId grid = forest.create_region(is, fs);
    const PartitionId touched = partition_equal(forest, is, Rect::line(8));
    const PartitionId untouched = partition_equal(forest, is, Rect::line(4));
    const TaskFnId inc = rt.register_task("inc", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each([&](const Point& p) { acc.write(p, acc.read(p) + 1); });
    });
    const auto launch = [&](PartitionId part, int64_t colors, ProjectionFunctor functor,
                            FieldId field) {
      return IndexLauncher::over(Domain::line(colors))
          .with_task(inc)
          .region(grid, part, std::move(functor), {field}, Privilege::kReadWrite);
    };
    const auto valid = [&] {
      rt.execute_index(launch(touched, 8, ProjectionFunctor::identity(1), fv));
    };
    valid();  // the init launch touches `touched`
    double expected = 1;

    // affine1d(1, 1) sends the last point one color past the partition.
    const std::vector<std::pair<const char*, std::function<void()>>> refusals = {
        {"color outside a touched partition",
         [&] { rt.execute_index(launch(touched, 8, ProjectionFunctor::affine1d(1, 1), fv)); }},
        {"color outside an untouched partition",
         [&] {
           rt.execute_index(launch(untouched, 4, ProjectionFunctor::affine1d(1, 1), fv));
         }},
        {"single task naming an unknown field",
         [&] {
           rt.execute(TaskLauncher::for_task(inc).region(grid, {missing},
                                                         Privilege::kReadWrite));
         }},
        {"index launch naming an unknown field",
         [&] {
           rt.execute_index(launch(touched, 8, ProjectionFunctor::identity(1), missing));
         }},
    };
    for (const auto& [what, refused] : refusals) {
      SCOPED_TRACE(what);
      const uint64_t next_launch = rt.local().peek_next_launch_id();
      const std::size_t journal = forest.setup_journal().size();
      EXPECT_THROW(refused(), RuntimeError);
      EXPECT_EQ(rt.local().peek_next_launch_id(), next_launch);
      EXPECT_EQ(forest.setup_journal().size(), journal);

      valid();
      ++expected;
      rt.wait_all();
      EXPECT_TRUE(rt.fault_report().ok());
      auto acc = rt.read_region<double>(grid, fv);
      for (int64_t i = 0; i < 64; ++i) ASSERT_EQ(acc.read(Point::p1(i)), expected) << i;
    }
  }
}

TEST(InProcessRanksTest, RepeatedRunsAreIndependent) {
  const int64_t pieces = 4;
  HaloFixture fx(in_process(2), 24, pieces);
  fx.rt.run([&](RuntimeApi& api) { fx.issue_program(api, pieces, 2); });
  const auto first = fx.values(24);
  fx.rt.run([&](RuntimeApi& api) { fx.issue_program(api, pieces, 2); });
  // The second run re-initializes and repeats the same 2 iterations.
  EXPECT_EQ(fx.values(24), first);
}

TEST(InProcessRanksTest, WorkIsActuallyDistributed) {
  // Issuance and analysis are replicated — every rank issues every launch
  // and every point — while execution is partitioned: each rank runs only
  // its block of each launch domain.
  const int64_t pieces = 8;
  DistConfig cfg = in_process(4, /*delta=*/false);
  cfg.runtime.enable_profiling = true;
  HaloFixture fx(std::move(cfg), 48, pieces);
  fx.rt.run([&](RuntimeApi& api) { fx.issue_program(api, pieces, 3); });
  const uint64_t launches = 1 + 3 * 2;
  const uint64_t total_tasks = launches * static_cast<uint64_t>(pieces);

  const obs::MetricsSnapshot cluster = fx.rt.cluster_metrics();
  for (uint32_t r = 0; r < 4; ++r) {
    const std::string rank = std::to_string(r);
    EXPECT_EQ(cluster.value("idxl_launches_total", {{"kind", "index"}, {"rank", rank}}),
              launches)
        << "rank " << r;
    EXPECT_EQ(cluster.value("idxl_point_tasks_total", {{"rank", rank}}), total_tasks)
        << "rank " << r;
  }

  // Task spans are recorded only where a body actually ran.
  const obs::ClusterTrace trace = fx.rt.collect_cluster_trace();
  ASSERT_EQ(trace.ranks.size(), 4u);
  uint64_t executed = 0;
  for (const obs::RankTrace& rank_trace : trace.ranks) {
    const auto local = static_cast<uint64_t>(std::count_if(
        rank_trace.spans.begin(), rank_trace.spans.end(),
        [](const ProfileEvent& e) { return e.cat == ProfCategory::kTask; }));
    EXPECT_GT(local, 0u) << "rank " << rank_trace.rank;
    EXPECT_LT(local, total_tasks) << "rank " << rank_trace.rank;
    executed += local;
  }
  EXPECT_EQ(executed, total_tasks);
}

TEST(InProcessRanksTest, IdxModeIsBulkIssuance) {
  // One runtime call per index launch on every rank, |D| per launch without
  // index launches (the replicated No-IDX baseline).
  const int64_t pieces = 8;
  auto runtime_calls = [&](bool idx) {
    DistConfig cfg = in_process(2, /*delta=*/false);
    cfg.runtime.enable_index_launches = idx;
    HaloFixture fx(std::move(cfg), 48, pieces);
    fx.rt.run([&](RuntimeApi& api) { fx.issue_program(api, pieces, 2); });
    EXPECT_EQ(fx.values(48), serial_reference(48, 2));
    return fx.rt.cluster_metrics().value("idxl_runtime_calls_total", {{"rank", "1"}});
  };
  const uint64_t launches = 1 + 2 * 2;
  EXPECT_EQ(runtime_calls(true), launches);
  EXPECT_EQ(runtime_calls(false), launches * static_cast<uint64_t>(pieces));
}

TEST(InProcessRanksTest, LaunchDescriptorsStayConstantAcrossEpochs) {
  // The residue-class writer chain: launch j writes colors 16i + j of one
  // field. Every kLaunch frame stays the size of the first: the O(1)
  // descriptor carries nothing a rank has learned about earlier launches.
  constexpr int kStride = 16;
  constexpr int64_t kPieces = 32;
  constexpr int kEpochs = 3;
  DistributedRuntime rt(in_process(2));
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(kStride * kPieces));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId grid = forest.create_region(is, fs);
  const PartitionId colors = partition_equal(forest, is, Rect::line(kStride * kPieces));
  const TaskFnId store = rt.register_task("store", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0])); });
  });
  auto launch_bytes = [&] {
    return rt.metrics().snapshot().value(
        "idxl_net_bytes_sent_total", obs::Labels{{"peer", "rank-1"}, {"type", "launch"}});
  };

  std::vector<uint64_t> deltas;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    for (int j = 0; j < kStride; ++j) {
      const uint64_t before = launch_bytes();
      rt.execute_index(IndexLauncher::over(Domain::line(kPieces))
                           .with_task(store)
                           .region(grid, colors, ProjectionFunctor::affine1d(kStride, j), {fv},
                                   Privilege::kWrite));
      deltas.push_back(launch_bytes() - before);
    }
    rt.wait_all();
  }
  ASSERT_EQ(deltas.size(), static_cast<std::size_t>(kEpochs * kStride));
  EXPECT_GT(deltas.front(), 0u);
  for (std::size_t i = 0; i < deltas.size(); ++i)
    EXPECT_EQ(deltas[i], deltas.front()) << "launch " << i;

  auto v = rt.read_region<double>(grid, fv);
  for (int64_t i = 0; i < kStride * kPieces; ++i)
    EXPECT_DOUBLE_EQ(v.read(Point::p1(i)), static_cast<double>(i));
}

TEST(InProcessRanksTest, InterferenceKnobOffMatchesResults) {
  // The halo program on two ranks matches the serial reference.
  const int64_t pieces = 4;
  HaloFixture fx(in_process(2), 24, pieces);
  fx.rt.run([&](RuntimeApi& api) { fx.issue_program(api, pieces, 3); });
  EXPECT_EQ(fx.values(24), serial_reference(24, 3));
}

/// Delta data plane on or off.
class InProcessWavefront : public ::testing::TestWithParam<bool> {};

TEST_P(InProcessWavefront, SparseWavefrontsWithDynamicChecks) {
  // A DOM-style sweep under control replication: sparse diagonal launch
  // domains whose plane-projection functors need the dynamic check, which
  // every rank replicates and agrees on.
  DistributedRuntime rt(in_process(3, GetParam()));
  auto& forest = rt.forest();
  const int64_t bx = 3, by = 3;
  const IndexSpaceId plane_is = forest.create_index_space(Domain(Rect::box2(bx, by)));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId plane = forest.create_region(plane_is, fs);
  const PartitionId cells = partition_equal(forest, plane_is, Rect::box2(bx, by));

  // Sweep task: cell (x,y) = max(left, up) + 1, reading the neighbor cells
  // through shifted (wrapped) projection functors; boundary cells skip the
  // wrapped reads.
  const TaskFnId relax = rt.register_task("relax", [](TaskContext& ctx) {
    auto own = ctx.region(0).accessor<double>(0);
    auto left = ctx.region(1).accessor<double>(0);
    auto up = ctx.region(2).accessor<double>(0);
    const Point p = ctx.point;
    double best = 0;
    if (p[0] > 0) best = std::max(best, left.read(Point::p2(p[0] - 1, p[1])));
    if (p[1] > 0) best = std::max(best, up.read(Point::p2(p[0], p[1] - 1)));
    own.write(Point::p2(p[0], p[1]), best + 1.0);
  });

  // ((x + bx - 1) mod bx, y) and (x, (y + by - 1) mod by): the wrapped
  // neighbor selections — non-affine, so every multi-point wavefront goes
  // through the replicated dynamic check.
  const auto f_left = ProjectionFunctor::symbolic(
      {make_mod(make_add(make_coord(0), make_const(bx - 1)), make_const(bx)),
       make_coord(1)},
      "left");
  const auto f_up = ProjectionFunctor::symbolic(
      {make_coord(0),
       make_mod(make_add(make_coord(1), make_const(by - 1)), make_const(by))},
      "up");

  for (int64_t w = 0; w <= bx + by - 2; ++w) {
    std::vector<Point> wave;
    for (int64_t x = 0; x < bx; ++x)
      for (int64_t y = 0; y < by; ++y)
        if (x + y == w) wave.push_back(Point::p2(x, y));
    rt.execute_index(
        IndexLauncher::over(Domain::from_points(std::move(wave)))
            .with_task(relax)
            .region(plane, cells, ProjectionFunctor::identity(2), {fv},
                    Privilege::kWrite)
            .region(plane, cells, f_left, {fv}, Privilege::kRead)
            .region(plane, cells, f_up, {fv}, Privilege::kRead));
  }
  rt.wait_all();
  EXPECT_TRUE(rt.fault_report().ok());
  EXPECT_GT(rt.stats().launches_safe_dynamic, 0u);

  auto acc = rt.read_region<double>(plane, fv);
  for (int64_t x = 0; x < bx; ++x)
    for (int64_t y = 0; y < by; ++y)
      EXPECT_DOUBLE_EQ(acc.read(Point::p2(x, y)), static_cast<double>(x + y + 1));
}

INSTANTIATE_TEST_SUITE_P(Planes, InProcessWavefront, ::testing::Bool());

}  // namespace
}  // namespace idxl::dist
