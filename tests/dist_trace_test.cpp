// Distributed-tracing integration tests: run the stencil workload across
// real worker processes in each wire configuration (star-hub, relay-delta,
// p2p-delta) with profiling on, then check the driver's merged cluster view
// — span-parent integrity (no orphan remote spans), heartbeat clock
// alignment, rank-labeled metrics aggregation, and the merged Chrome trace
// written at shutdown.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/dist_runtime.hpp"
#include "dist/smoke_tasks.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "test_json.hpp"

namespace idxl::dist {
namespace {

using testjson::JsonParser;
using testjson::JValue;

struct Grid {
  FieldId fin;
  FieldId fout;
  RegionId region;
  PartitionId blocks;
  PartitionId halos;
};

constexpr int64_t kNx = 16, kNy = 16, kPx = 2, kPy = 2, kRadius = 1;

Grid make_grid(RegionForest& forest) {
  Grid g;
  const IndexSpaceId is =
      forest.create_index_space(Domain(Rect::box2(kNx, kNy)));
  const FieldSpaceId fs = forest.create_field_space();
  g.fin = forest.allocate_field(fs, sizeof(double), "in");
  g.fout = forest.allocate_field(fs, sizeof(double), "out");
  g.region = forest.create_region(is, fs);
  g.blocks = partition_equal(forest, is, Rect::box2(kPx, kPy));
  g.halos = partition_halo(forest, is, g.blocks, kRadius);
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

void run_stencil(DistributedRuntime& rt, const Grid& g, int iters) {
  const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
  const TaskFnId inc =
      rt.register_task("smoke_increment", smoke::increment_body);
  smoke::StencilArgs a;
  a.fin = 0;
  a.fout = 1;
  a.radius = kRadius;
  a.nx = kNx;
  a.ny = kNy;
  const Domain dom = Domain(Rect::box2(kPx, kPy));
  const auto id = ProjectionFunctor::identity(2);
  const auto args = ArgBuffer::of(a);
  for (int it = 0; it < iters; ++it) {
    rt.execute_index(IndexLauncher::over(dom)
                         .with_task(st)
                         .scalars(args)
                         .region(g.region, g.halos, id, {g.fin},
                                 Privilege::kRead)
                         .region(g.region, g.blocks, id, {g.fout},
                                 Privilege::kReadWrite));
    rt.execute_index(IndexLauncher::over(dom)
                         .with_task(inc)
                         .scalars(args)
                         .region(g.region, g.blocks, id, {g.fin},
                                 Privilege::kReadWrite));
  }
  rt.wait_all();
}

DistConfig traced_config(uint32_t ranks, bool delta, bool p2p) {
  DistConfig dc;
  dc.ranks = ranks;
  dc.runtime.workers = 2;
  dc.runtime.enable_profiling = true;
  dc.delta_transfers = delta;
  dc.p2p = p2p;
  dc.heartbeat_period_ms = 25;  // fast clock probes for the offset tests
  return dc;
}

// The ISSUE acceptance test: across all three wire configurations every
// remote-parented span (xfer-apply, done-apply) must resolve to a recorded
// producing task span on its origin rank — no orphans, at 4 ranks.
TEST(DistTraceTest, SpanParentIntegrityAcrossConfigs) {
  struct Config {
    const char* name;
    bool delta, p2p;
  };
  const Config configs[] = {{"star-hub", false, false},
                            {"relay-delta", true, false},
                            {"p2p-delta", true, true}};
  for (const Config& c : configs) {
    SCOPED_TRACE(c.name);
    DistributedRuntime rt(traced_config(4, c.delta, c.p2p));
    const Grid g = make_grid(rt.forest());
    init_grid(rt.forest(), g);
    run_stencil(rt, g, /*iters=*/3);

    const obs::ClusterTrace trace = rt.collect_cluster_trace();
    ASSERT_EQ(trace.ranks.size(), 4u);
    for (const obs::OrphanSpan& o : trace.orphans())
      ADD_FAILURE() << c.name << ": orphan span on rank " << o.rank
                    << " parent seq " << o.parent << " origin rank "
                    << o.origin;
    // Remote work happened, so the merge must have resolved transfer edges.
    EXPECT_GT(trace.transfer_edges(), 0u);
    // Every rank shipped its spans and every rank executed something.
    for (const obs::RankTrace& r : trace.ranks) {
      EXPECT_FALSE(r.spans.empty()) << "rank " << r.rank;
      EXPECT_FALSE(r.names.empty()) << "rank " << r.rank;
    }
  }
}

TEST(DistTraceTest, ClockOffsetsWithinRttBound) {
  DistributedRuntime rt(traced_config(4, /*delta=*/true, /*p2p=*/true));
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  run_stencil(rt, g, /*iters=*/1);
  // Let a heartbeat ping-pong probe complete with every worker: pongs
  // arrive on separate connections, so one rank's estimate says nothing
  // about another's.
  auto all_valid = [&] {
    for (uint32_t rank = 1; rank < 4; ++rank)
      if (!rt.clock_estimate(rank).valid) return false;
    return true;
  };
  for (int spin = 0; spin < 100 && !all_valid(); ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));

  for (uint32_t rank = 1; rank < 4; ++rank) {
    const net::ClockEstimate est = rt.clock_estimate(rank);
    ASSERT_TRUE(est.valid) << "rank " << rank;
    EXPECT_GT(est.rtt_ns, 0u);
    // Forked processes share the hardware clock: the true offset is 0, and
    // the midpoint estimate is correct to ±rtt/2 per sample (1ms cushion
    // for EWMA mixing of samples with different RTTs).
    const uint64_t bound = est.rtt_ns + 1'000'000;
    EXPECT_LE(static_cast<uint64_t>(std::abs(est.offset_ns)), bound)
        << "rank " << rank << " offset " << est.offset_ns << " rtt "
        << est.rtt_ns;
  }
  // The driver's own registry exports the estimates as gauges.
  const obs::MetricsSnapshot snap = rt.local().metrics().snapshot();
  EXPECT_NE(snap.series("idxl_net_clock_offset_ns", {{"rank", "1"}}), nullptr);

  // The merged trace carries the alignment per rank.
  const obs::ClusterTrace trace = rt.collect_cluster_trace();
  ASSERT_EQ(trace.ranks.size(), 4u);
  for (const obs::RankTrace& r : trace.ranks) {
    if (r.rank != 0) {
      EXPECT_GT(r.rtt_ns, 0u) << "rank " << r.rank;
    }
  }
}

TEST(DistTraceTest, ClusterMetricsCarryEveryRank) {
  DistributedRuntime rt(traced_config(4, /*delta=*/true, /*p2p=*/true));
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  run_stencil(rt, g, /*iters=*/2);

  const obs::MetricsSnapshot cluster = rt.cluster_metrics();
  // One snapshot holds the same family from all four ranks plus a roll-up.
  uint64_t sum = 0;
  for (uint32_t rank = 0; rank < 4; ++rank) {
    const obs::SeriesSnapshot* s = cluster.series(
        "idxl_tasks_completed_total", {{"rank", std::to_string(rank)}});
    ASSERT_NE(s, nullptr) << "rank " << rank;
    EXPECT_GT(s->counter, 0u) << "rank " << rank;
    sum += s->counter;
  }
  EXPECT_EQ(cluster.value("idxl_tasks_completed_total", {{"rank", "all"}}),
            sum);

  const std::string prom = rt.cluster_prometheus();
  for (const char* needle :
       {"rank=\"0\"", "rank=\"1\"", "rank=\"2\"", "rank=\"3\"",
        "rank=\"all\""})
    EXPECT_NE(prom.find(needle), std::string::npos) << needle;

  JValue doc;
  ASSERT_TRUE(JsonParser(rt.cluster_metrics_json()).parse(doc));
  ASSERT_NE(doc.get("metrics"), nullptr);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(DistTraceTest, ShutdownWritesMergedChromeTrace) {
  const std::string path = testing::TempDir() + "idxl_merged_trace.json";
  std::remove(path.c_str());
  {
    DistConfig dc = traced_config(4, /*delta=*/true, /*p2p=*/true);
    dc.runtime.enable_profiling = false;  // trace_path must force it on
    dc.trace_path = path;
    DistributedRuntime rt(dc);
    const Grid g = make_grid(rt.forest());
    init_grid(rt.forest(), g);
    run_stencil(rt, g, /*iters=*/2);
  }  // destructor fences, pulls telemetry, writes the merged trace

  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  JValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc));
  // Process lanes for all four ranks.
  for (const char* lane : {"\"name\":\"rank 0\"", "\"name\":\"rank 1\"",
                           "\"name\":\"rank 2\"", "\"name\":\"rank 3\""})
    EXPECT_NE(json.find(lane), std::string::npos) << lane;
  // Flow events connect transfer producers to their apply spans.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // Clock-alignment notes are embedded per rank.
  EXPECT_NE(json.find("\"name\":\"clock-align\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(DistTraceTest, TraceEnvVarOverridesConfig) {
  const std::string path = testing::TempDir() + "idxl_env_trace.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("IDXL_TRACE", path.c_str(), 1), 0);
  {
    DistConfig dc = traced_config(2, /*delta=*/true, /*p2p=*/true);
    dc.runtime.enable_profiling = false;  // IDXL_TRACE must force it on
    DistributedRuntime rt(dc);
    const Grid g = make_grid(rt.forest());
    init_grid(rt.forest(), g);
    run_stencil(rt, g, /*iters=*/1);
  }
  unsetenv("IDXL_TRACE");

  const std::string json = slurp(path);
  ASSERT_FALSE(json.empty());
  JValue doc;
  EXPECT_TRUE(JsonParser(json).parse(doc));
  EXPECT_NE(json.find("\"name\":\"rank 1\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(DistTraceTest, DegenerateSingleRankTraceStillMerges) {
  DistConfig dc = traced_config(1, /*delta=*/true, /*p2p=*/false);
  DistributedRuntime rt(dc);
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  run_stencil(rt, g, /*iters=*/1);
  const obs::ClusterTrace trace = rt.collect_cluster_trace();
  ASSERT_EQ(trace.ranks.size(), 1u);
  EXPECT_TRUE(trace.orphans().empty());
  EXPECT_FALSE(trace.ranks[0].spans.empty());
  JValue doc;
  EXPECT_TRUE(JsonParser(trace.chrome_trace_json()).parse(doc));
}

TEST(DistTraceTest, DistributedStallDumpListsEveryRank) {
  // Not a stall — just the on-demand merged dump: every rank section must
  // be present (workers only push on a real watchdog stall, so only the
  // driver's section is guaranteed content; the dump must not block).
  DistributedRuntime rt(traced_config(2, /*delta=*/true, /*p2p=*/true));
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  run_stencil(rt, g, /*iters=*/1);
  const std::string dump = rt.distributed_stall_dump();
  EXPECT_NE(dump.find("idxl cluster stall dump"), std::string::npos);
  EXPECT_NE(dump.find("-- rank 0 --"), std::string::npos);
}

}  // namespace
}  // namespace idxl::dist
