// End-to-end tests of the multi-process runtime (src/dist): fork-mode
// workers are real child processes connected over socketpairs, so these
// tests exercise the full wire protocol — handshake, launch broadcast,
// TaskDone relay, fence report verification and shutdown drain.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "dist/dist_runtime.hpp"
#include "dist/protocol.hpp"
#include "dist/smoke_tasks.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "runtime/serialize.hpp"

namespace idxl::dist {
namespace {

struct Grid {
  IndexSpaceId is;
  FieldSpaceId fs;
  FieldId fin;
  FieldId fout;
  RegionId region;
  PartitionId blocks;
  PartitionId halos;
};

constexpr int64_t kNx = 24, kNy = 24, kPx = 2, kPy = 2, kRadius = 1;
constexpr int kIters = 3;

Grid make_grid(RegionForest& forest) {
  Grid g;
  g.is = forest.create_index_space(Domain(Rect::box2(kNx, kNy)));
  g.fs = forest.create_field_space();
  g.fin = forest.allocate_field(g.fs, sizeof(double), "in");
  g.fout = forest.allocate_field(g.fs, sizeof(double), "out");
  g.region = forest.create_region(g.is, g.fs);
  g.blocks = partition_equal(forest, g.is, Rect::box2(kPx, kPy));
  g.halos = partition_halo(forest, g.is, g.blocks, kRadius);
  return g;
}

void init_grid(RegionForest& forest, const Grid& g) {
  Accessor<double> in(forest, g.region, g.fin, Privilege::kWrite);
  Accessor<double> out(forest, g.region, g.fout, Privilege::kWrite);
  for (const Point& p : Rect::box2(kNx, kNy)) {
    in.write(p, static_cast<double>(p[0] + p[1]));
    out.write(p, 0.0);
  }
}

smoke::StencilArgs stencil_args() {
  smoke::StencilArgs a;
  a.fin = 0;
  a.fout = 1;
  a.radius = kRadius;
  a.nx = kNx;
  a.ny = kNy;
  return a;
}

/// Issue `iters` stencil+increment iterations — the identical stream on
/// whichever backend `rt` is.
void run_stencil(RuntimeApi& rt, const Grid& g, TaskFnId stencil,
                 TaskFnId increment, int iters, uint32_t retries = 0) {
  const Domain dom = Domain(Rect::box2(kPx, kPy));
  const auto id = ProjectionFunctor::identity(2);
  const auto args = ArgBuffer::of(stencil_args());
  for (int it = 0; it < iters; ++it) {
    rt.execute_index(IndexLauncher::over(dom)
                         .with_task(stencil)
                         .scalars(args)
                         .retries(retries)
                         .region(g.region, g.halos, id, {g.fin},
                                 Privilege::kRead)
                         .region(g.region, g.blocks, id, {g.fout},
                                 Privilege::kReadWrite));
    rt.execute_index(IndexLauncher::over(dom)
                         .with_task(increment)
                         .scalars(args)
                         .retries(retries)
                         .region(g.region, g.blocks, id, {g.fin},
                                 Privilege::kReadWrite));
  }
  rt.wait_all();
}

std::vector<double> read_field(RuntimeApi& rt, const Grid& g, FieldId f) {
  auto acc = rt.read_region<double>(g.region, f);
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(kNx * kNy));
  for (const Point& p : Rect::box2(kNx, kNy)) out.push_back(acc.read(p));
  return out;
}

/// The same workload on a plain local Runtime — the reference every
/// distributed assertion compares against.
struct LocalRun {
  std::vector<double> fin, fout;
  FaultReport report;
};

LocalRun run_local(std::shared_ptr<const FaultPlan> plan = nullptr,
                   uint32_t retries = 0) {
  RuntimeConfig rc;
  rc.workers = 2;
  rc.fault_plan = std::move(plan);
  Runtime rt(std::move(rc));
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  // Id parity with the dist backend's pre-registered fill/xfer pair.
  const TaskFnId fill = rt.register_task("idxl_dist_fill", [](TaskContext&) {});
  (void)fill;
  const TaskFnId xfer = rt.register_task("idxl_xfer", [](TaskContext&) {});
  (void)xfer;
  const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
  const TaskFnId inc =
      rt.register_task("smoke_increment", smoke::increment_body);
  run_stencil(rt, g, st, inc, kIters, retries);
  LocalRun out;
  out.fin = read_field(rt, g, g.fin);
  out.fout = read_field(rt, g, g.fout);
  out.report = rt.fault_report();
  return out;
}

struct DistRun {
  std::vector<double> fin, fout;
  FaultReport report;
  uint64_t launch_bytes = 0;  ///< wire bytes of kLaunch frames to rank 1
  uint64_t launch_frames = 0;
};

DistRun run_dist(uint32_t ranks, std::shared_ptr<const FaultPlan> plan = nullptr,
                 uint32_t retries = 0, int iters = kIters, bool delta = true) {
  DistConfig dc;
  dc.ranks = ranks;
  dc.runtime.workers = 2;
  dc.runtime.fault_plan = std::move(plan);
  dc.delta_transfers = delta;
  DistributedRuntime rt(dc);
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
  const TaskFnId inc =
      rt.register_task("smoke_increment", smoke::increment_body);
  run_stencil(rt, g, st, inc, iters, retries);
  DistRun out;
  out.fin = read_field(rt, g, g.fin);
  out.fout = read_field(rt, g, g.fout);
  out.report = rt.fault_report();
  if (ranks > 1) {
    const auto snap = rt.metrics().snapshot();
    const obs::Labels labels{{"peer", "rank-1"}, {"type", "launch"}};
    out.launch_bytes = snap.value("idxl_net_bytes_sent_total", labels);
    out.launch_frames = snap.value("idxl_net_frames_sent_total", labels);
  }
  return out;
}

TEST(DistTest, StencilBitIdenticalAcrossProcesses) {
  const LocalRun local = run_local();
  ASSERT_TRUE(local.report.ok());
  for (const uint32_t ranks : {2u, 3u}) {
    const DistRun dist = run_dist(ranks);
    EXPECT_TRUE(dist.report.ok());
    // Bit-identical, not approximately equal: both backends execute the
    // same launch stream over the same deterministic task bodies.
    EXPECT_EQ(local.fout, dist.fout) << "ranks=" << ranks;
    EXPECT_EQ(local.fin, dist.fin) << "ranks=" << ranks;
  }
}

TEST(DistTest, DegenerateSingleRank) {
  const DistRun solo = run_dist(1);
  const LocalRun local = run_local();
  EXPECT_TRUE(solo.report.ok());
  EXPECT_EQ(local.fout, solo.fout);
}

TEST(DistTest, RemoteFaultMatchesLocalPoisonClosure) {
  // Point (1,1) of launch 0 is owned by the last rank (owner_of on the 2x2
  // domain), so the injection fires in a *remote* process; the merged report
  // must match the one a purely local run produces, fault for fault.
  // Delta transfers interleave xfer nodes into the seq stream (and a
  // poisoned producer legitimately poisons them too), so the seq-by-seq
  // closure comparison runs against the star-hub data plane; the delta
  // planes' fault semantics are covered by dist_data_plane_test.
  auto plan = std::make_shared<const FaultPlan>(
      FaultPlan().fail(/*launch=*/0, Point::p2(1, 1)));
  const LocalRun local = run_local(plan);
  const DistRun dist = run_dist(2, plan, 0, kIters, /*delta=*/false);
  ASSERT_FALSE(local.report.ok());
  EXPECT_EQ(local.report.failures, dist.report.failures);
  EXPECT_EQ(local.report.poisoned, dist.report.poisoned);
  // Survivor data is also identical: poisoning skipped the same tasks.
  EXPECT_EQ(local.fout, dist.fout);
}

TEST(DistTest, RemoteRetrySucceeds) {
  // One injected failure on attempt 0 of a remote point; with a retry
  // budget the second attempt succeeds and the run is clean.
  auto plan = std::make_shared<const FaultPlan>(
      FaultPlan().fail(/*launch=*/0, Point::p2(1, 1), /*attempt=*/0));
  const DistRun dist = run_dist(2, plan, /*retries=*/2);
  EXPECT_TRUE(dist.report.ok())
      << "failures=" << dist.report.failures.size();
  const LocalRun clean = run_local();
  EXPECT_EQ(clean.fout, dist.fout);
}

TEST(DistTest, LaunchWireBytesIndependentOfDomainVolume) {
  // The paper's core claim carried onto the wire: a dense index launch
  // ships as an O(1) descriptor, so bytes-per-launch cannot grow with |D|.
  const auto id = ProjectionFunctor::identity(1);
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(1024));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId f = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId r = forest.create_region(is, fs);
  const PartitionId small = partition_equal(forest, is, Rect::line(4));
  const PartitionId large = partition_equal(forest, is, Rect::line(256));

  const auto bytes_for = [&](int64_t pieces, PartitionId part) {
    return serialize_launcher(IndexLauncher::over(Domain::line(pieces))
                                  .with_task(0)
                                  .region(r, part, id, {f}, Privilege::kWrite))
        .size();
  };
  EXPECT_EQ(bytes_for(4, small), bytes_for(256, large));
}

TEST(DistTest, LaunchFramesAndPerLaunchBytesScaleWithLaunchCountOnly) {
  // Same assertion measured on the actual wire: double the iteration count
  // and kLaunch traffic doubles — bytes per launch frame stays constant,
  // independent of how many point tasks each launch expands to (16 here).
  const DistRun three = run_dist(2, nullptr, 0, /*iters=*/3);
  const DistRun six = run_dist(2, nullptr, 0, /*iters=*/6);
  ASSERT_GT(three.launch_frames, 0u);
  EXPECT_EQ(six.launch_frames, 2 * three.launch_frames);
  EXPECT_EQ(six.launch_bytes, 2 * three.launch_bytes);
  EXPECT_EQ(three.launch_bytes % three.launch_frames, 0u);
}

/// Two single-field writer launches per iteration over disjoint blocks, on
/// disjoint fields of one tree.
struct FieldWriterRun {
  std::vector<double> fin, fout;
  RuntimeStats stats;
  uint64_t launch_bytes = 0;
};

FieldWriterRun run_field_writers(uint32_t ranks, int iters) {
  DistConfig dc;
  dc.ranks = ranks;
  dc.runtime.workers = 2;
  DistributedRuntime rt(dc);
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  const TaskFnId win = rt.register_task("write_in", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0] - p[1])); });
  });
  const TaskFnId wout = rt.register_task("write_out", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(1);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(p[0] * p[1])); });
  });
  const Domain dom = Domain(Rect::box2(kPx, kPy));
  const auto id = ProjectionFunctor::identity(2);
  for (int it = 0; it < iters; ++it) {
    rt.execute_index(IndexLauncher::over(dom).with_task(win).region(
        g.region, g.blocks, id, {g.fin}, Privilege::kWrite));
    rt.execute_index(IndexLauncher::over(dom).with_task(wout).region(
        g.region, g.blocks, id, {g.fout}, Privilege::kWrite));
  }
  rt.wait_all();
  FieldWriterRun out;
  out.fin = read_field(rt, g, g.fin);
  out.fout = read_field(rt, g, g.fout);
  out.stats = rt.stats();
  if (ranks > 1) {
    const auto snap = rt.metrics().snapshot();
    out.launch_bytes = snap.value("idxl_net_bytes_sent_total",
                                  obs::Labels{{"peer", "rank-1"}, {"type", "launch"}});
  }
  return out;
}

TEST(DistTest, AnalysisLeavesLaunchFramesUnchanged) {
  // Each rank analyzes its own copy of the launch stream, so the kLaunch
  // frames to rank 1 carry no analysis payload: every iteration's frames
  // are byte for byte as large as the first's.
  const FieldWriterRun one = run_field_writers(2, /*iters=*/1);
  const FieldWriterRun three = run_field_writers(2, /*iters=*/3);
  ASSERT_GT(one.launch_bytes, 0u);
  EXPECT_EQ(three.launch_bytes, 3 * one.launch_bytes);
  // Two ranks write what one does.
  const FieldWriterRun solo = run_field_writers(1, /*iters=*/3);
  EXPECT_EQ(three.fin, solo.fin);
  EXPECT_EQ(three.fout, solo.fout);
}

TEST(DistTest, RegisterAfterStartThrows) {
  DistConfig dc;
  dc.ranks = 1;
  DistributedRuntime rt(dc);
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
  const TaskFnId inc =
      rt.register_task("smoke_increment", smoke::increment_body);
  run_stencil(rt, g, st, inc, 1);
  EXPECT_THROW(rt.register_task("late", smoke::stencil_body), RuntimeError);
}

TEST(DistTest, OwnerOfPartitionsEveryDomain) {
  // Every point maps to exactly one rank and the blocks are contiguous and
  // balanced; rank 0 owns degenerate domains outright.
  const Domain dom(Rect::box2(4, 4));
  for (const uint32_t nranks : {1u, 2u, 3u, 5u, 16u, 17u}) {
    std::vector<int64_t> counts(nranks, 0);
    uint32_t last = 0;
    for (const Point& p : Rect::box2(4, 4)) {
      const uint32_t o = owner_of(dom, p, nranks);
      ASSERT_LT(o, nranks);
      ASSERT_GE(o, last) << "ownership must be monotone in row-major order";
      last = o;
      ++counts[o];
    }
    const int64_t lo = dom.volume() / nranks;
    for (const int64_t c : counts) {
      EXPECT_GE(c, std::max<int64_t>(lo, 0));
      EXPECT_LE(c, lo + 1);
    }
  }
  EXPECT_EQ(owner_of(Domain::line(1), Point::p1(0), 8), 0u);
}

TEST(DistTest, OwnedRunInvertsOwnerOf) {
  // Each rank's run of linear indices holds exactly the points owner_of
  // gives it, so a rank's points of a launch are one run of seqs.
  for (const Domain& dom : {Domain(Rect::box2(4, 4)), Domain::line(7), Domain::line(1),
                            Domain::line(2)}) {
    for (const uint32_t nranks : {1u, 2u, 3u, 5u, 16u, 17u}) {
      for (uint32_t rank = 0; rank < nranks; ++rank) {
        const auto [lo, hi] = owned_run(dom, rank, nranks);
        int64_t owned = 0;
        dom.for_each([&](const Point& p) {
          const int64_t idx = dom.linear_index(p);
          const bool mine = owner_of(dom, p, nranks) == rank;
          EXPECT_EQ(mine, idx >= lo && idx < hi) << "rank " << rank << " of " << nranks;
          owned += mine ? 1 : 0;
        });
        EXPECT_EQ(owned, hi - lo) << "rank " << rank << " of " << nranks;
      }
    }
  }
}

// ---------- block placement of launch points onto ranks ----------

TEST(MappingTest, BlockShardingPartitionsDomain) {
  const Domain d = Domain::line(100);
  std::vector<int> counts(4, 0);
  d.for_each([&](const Point& p) { ++counts[owner_of(d, p, 4)]; });
  for (int c : counts) EXPECT_EQ(c, 25);
  // Contiguity: point 0 lands on rank 0, point 99 on rank 3.
  EXPECT_EQ(owner_of(d, Point::p1(0), 4), 0u);
  EXPECT_EQ(owner_of(d, Point::p1(99), 4), 3u);
}

TEST(MappingTest, BlockShardingLocalPoints) {
  // A rank's local points are those owner_of places on it: idx*3/10 over
  // line(10) gives rank 1 of 3 the points 4..6.
  const Domain d = Domain::line(10);
  std::vector<Point> local;
  d.for_each([&](const Point& p) {
    if (owner_of(d, p, 3) == 1) local.push_back(p);
  });
  ASSERT_EQ(local.size(), 3u);
  EXPECT_EQ(local[0], Point::p1(4));
  EXPECT_EQ(local[2], Point::p1(6));
}

TEST(MappingTest, ShardingWorksOnSparseDomains) {
  // Sparse domains split by position in the point enumeration, not by
  // coordinate: six even points over two ranks is three apiece.
  std::vector<Point> pts;
  for (int i = 0; i < 12; i += 2) pts.push_back(Point::p1(i));
  const Domain d = Domain::from_points(pts);
  std::vector<int> counts(2, 0);
  d.for_each([&](const Point& p) { ++counts[owner_of(d, p, 2)]; });
  EXPECT_EQ(counts[0], 3);
  EXPECT_EQ(counts[1], 3);
}

}  // namespace
}  // namespace idxl::dist
