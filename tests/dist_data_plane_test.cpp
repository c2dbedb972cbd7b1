// Data-plane tests for the distributed runtime (docs/DISTRIBUTED.md "Data
// plane"): VersionMap coherence planning in isolation, then the three wire
// configurations — star-hub broadcast, delta via driver relay, delta over
// direct worker links — run differentially against the local reference,
// with workers forked and with workers as in-process threads, including
// forced peer-link failure and fault-poison merging.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "dist/dist_runtime.hpp"
#include "dist/smoke_tasks.hpp"
#include "dist/version_map.hpp"
#include "dist/worker.hpp"
#include "net/socket.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace idxl::dist {
namespace {

// --- VersionMap unit tests -------------------------------------------------

/// A forest holding one 2-D root region with one field, for VersionMap unit
/// tests. `sub(rect)` makes a one-color aliased partition of the root, whose
/// only subregion covers exactly `rect`: a producer or reader region with
/// that rect as its bounds.
struct MapForest {
  RegionForest forest;
  IndexSpaceId is;
  RegionId root;

  explicit MapForest(const Rect& bounds) {
    is = forest.create_index_space(Domain(bounds));
    const FieldSpaceId fs = forest.create_field_space();
    forest.allocate_field(fs, sizeof(double), "v");
    root = forest.create_region(is, fs);
  }

  RegionId sub(const Rect& rect) {
    const PartitionId p =
        forest.create_partition(is, Rect::line(1), {Domain(rect)}, Disjointness::kAliased);
    return forest.subregion(root, p, Point::p1(0));
  }
};

TEST(VersionMapTest, UntouchedSpaceIsCurrentEverywhere) {
  MapForest mf(Rect::box2(8, 8));
  VersionMap vm(4, mf.forest);
  std::vector<Transfer> out;
  vm.plan_read(mf.root, 0, /*dest=*/3, out);
  EXPECT_TRUE(out.empty());  // version 0 = the broadcast bootstrap state
  EXPECT_TRUE(vm.entries(mf.root, 0).empty());
}

TEST(VersionMapTest, WriteThenRemoteReadShipsOnce) {
  MapForest mf(Rect::box2(8, 8));
  VersionMap vm(2, mf.forest);
  const Rect block{Point::p2(0, 0), Point::p2(3, 3)};
  const RegionId prod_a = mf.sub(block);
  vm.note_write(prod_a, 0, block, /*owner=*/1);

  std::vector<Transfer> out;
  vm.plan_read(prod_a, 0, /*dest=*/0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].src, 1u);
  EXPECT_EQ(out[0].producer, prod_a);
  EXPECT_EQ(out[0].rect, block);

  // The shipped span is now current at dest: planning again is a no-op.
  out.clear();
  vm.plan_read(prod_a, 0, /*dest=*/0, out);
  EXPECT_TRUE(out.empty());
}

TEST(VersionMapTest, OwnerNeverShipsToItself) {
  MapForest mf(Rect::box2(8, 8));
  VersionMap vm(2, mf.forest);
  const Rect block{Point::p2(0, 0), Point::p2(3, 3)};
  const RegionId prod_a = mf.sub(block);
  vm.note_write(prod_a, 0, block, /*owner=*/1);
  std::vector<Transfer> out;
  vm.plan_read(prod_a, 0, /*dest=*/1, out);
  EXPECT_TRUE(out.empty());
}

TEST(VersionMapTest, HaloReadClipsToWrittenSpan) {
  // Stencil shape: rank 1 wrote its 4x4 block; rank 0 reads a halo rect one
  // cell into it. Only the overlap strip ships — not the whole block, and
  // nothing for the halo's version-0 remainder.
  MapForest mf(Rect::box2(8, 8));
  VersionMap vm(2, mf.forest);
  const Rect block{Point::p2(4, 0), Point::p2(7, 3)};
  vm.note_write(mf.sub(block), 0, block, /*owner=*/1);
  const RegionId halo = mf.sub(Rect{Point::p2(0, 0), Point::p2(4, 3)});
  std::vector<Transfer> out;
  vm.plan_read(halo, 0, /*dest=*/0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rect, Rect(Point::p2(4, 0), Point::p2(4, 3)));
  // The entry split: the shipped strip and the still-exclusive remainder.
  EXPECT_EQ(vm.entries(mf.root, 0).size(), 2u);
}

TEST(VersionMapTest, NewWriteInvalidatesShippedCopies) {
  // Two producers with the same rect: distinct index spaces, so distinct
  // buckets, and the second write must still retire the first's entry.
  MapForest mf(Rect::box2(8, 8));
  VersionMap vm(2, mf.forest);
  const Rect block{Point::p2(0, 0), Point::p2(3, 3)};
  const RegionId prod_a = mf.sub(block);
  const RegionId prod_b = mf.sub(block);
  vm.note_write(prod_a, 0, block, /*owner=*/1);
  std::vector<Transfer> out;
  vm.plan_read(prod_a, 0, /*dest=*/0, out);
  ASSERT_EQ(out.size(), 1u);

  // Version bump: the old copy at rank 0 is stale again.
  vm.note_write(prod_b, 0, block, /*owner=*/1);
  out.clear();
  vm.plan_read(prod_a, 0, /*dest=*/0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].producer, prod_b);
  EXPECT_GT(out[0].version, 1u);
}

TEST(VersionMapTest, BroadcastWriteNeedsNoTransfers) {
  MapForest mf(Rect::box2(8, 8));
  VersionMap vm(4, mf.forest);
  const Rect block{Point::p2(0, 0), Point::p2(3, 3)};
  const RegionId prod_a = mf.sub(block);
  vm.note_write_everywhere(prod_a, 0, block, /*owner=*/2);
  std::vector<Transfer> out;
  for (uint32_t dest = 0; dest < 4; ++dest)
    vm.plan_read(prod_a, 0, dest, out);
  EXPECT_TRUE(out.empty());
}

TEST(VersionMapTest, OverlappingWritesStayDisjoint) {
  // A second write punching through the middle of an earlier one must leave
  // a disjoint partition: reads see each span's latest producer exactly once.
  MapForest mf(Rect::box2(8, 8));
  VersionMap vm(2, mf.forest);
  const Rect outer{Point::p2(0, 0), Point::p2(7, 7)};
  const Rect inner_rect{Point::p2(2, 2), Point::p2(5, 5)};
  const RegionId prod_a = mf.sub(outer);
  const RegionId prod_b = mf.sub(inner_rect);
  vm.note_write(prod_a, 0, outer, 1);
  vm.note_write(prod_b, 0, inner_rect, 1);
  std::vector<Transfer> out;
  vm.plan_read(mf.root, 0, 0, out);
  int64_t covered = 0;
  for (const Transfer& t : out) {
    covered += t.rect.volume();
    for (const Transfer& u : out)
      if (&t != &u) {
        EXPECT_TRUE(t.rect.intersection(u.rect).empty());
      }
  }
  EXPECT_EQ(covered, 64);
  const int64_t inner = std::accumulate(
      out.begin(), out.end(), int64_t{0}, [&](int64_t acc, const Transfer& t) {
        return acc + (t.producer == prod_b ? t.rect.volume() : 0);
      });
  EXPECT_EQ(inner, 16);  // exactly the punched 4x4 belongs to the new write
}

TEST(VersionMapTest, RandomOpsMatchPerCellModel) {
  // Random writes, broadcast writes and reads on a small 2-D grid, against a
  // per-cell model of (version, owner, current mask, producer). Every read
  // must ship exactly its stale cells, each from the rank holding the
  // newest version, and the map's entries must stay a disjoint partition
  // that agrees with the model cell by cell. Each op's rect is the bounds
  // of a subregion of its own, so producers and readers spread over as many
  // buckets as there are ops.
  constexpr int64_t kW = 7, kH = 5;
  struct Cell {
    uint64_t version = 0;
    uint32_t owner = 0;
    uint64_t current = 0;
    RegionId producer;
  };
  for (const uint64_t seed : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const auto nranks = static_cast<uint32_t>(2 + seed % 3);
    const uint64_t all = (uint64_t{1} << nranks) - 1;
    MapForest mf(Rect::box2(kW, kH));
    VersionMap vm(nranks, mf.forest);
    std::vector<Cell> cells(static_cast<std::size_t>(kW * kH));
    const auto cell = [&](const Point& p) -> Cell& {
      return cells[static_cast<std::size_t>(p[1] * kW + p[0])];
    };
    const auto random_rect = [&] {
      const auto x0 = static_cast<int64_t>(rng.next_below(kW));
      const auto y0 = static_cast<int64_t>(rng.next_below(kH));
      const auto x1 = x0 + static_cast<int64_t>(rng.next_below(kW - x0));
      const auto y1 = y0 + static_cast<int64_t>(rng.next_below(kH - y0));
      return Rect(Point::p2(x0, y0), Point::p2(x1, y1));
    };
    uint64_t version = 0;
    for (uint32_t op = 0; op < 300; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      const Rect rect = random_rect();
      const auto rank = static_cast<uint32_t>(rng.next_below(nranks));
      const uint64_t kind = rng.next_below(3);
      const RegionId region = mf.sub(rect);
      if (kind < 2) {
        const RegionId producer = region;
        const uint64_t current = kind == 0 ? uint64_t{1} << rank : all;
        if (kind == 0)
          vm.note_write(producer, 0, rect, rank);
        else
          vm.note_write_everywhere(producer, 0, rect, rank);
        ++version;
        for (const Point& p : rect) cell(p) = Cell{version, rank, current, producer};
      } else {
        std::vector<Transfer> out;
        vm.plan_read(region, 0, rank, out);
        const uint64_t bit = uint64_t{1} << rank;
        int64_t stale = 0;
        for (const Point& p : rect)
          if (cell(p).version != 0 && (cell(p).current & bit) == 0) ++stale;
        int64_t shipped = 0;
        for (std::size_t i = 0; i < out.size(); ++i) {
          const Transfer& t = out[i];
          EXPECT_NE(t.src, rank);
          EXPECT_EQ(t.dest, rank);
          EXPECT_TRUE(rect.contains(t.rect));
          for (std::size_t j = i + 1; j < out.size(); ++j)
            EXPECT_FALSE(t.rect.overlaps(out[j].rect));
          for (const Point& p : t.rect) {
            const Cell& c = cell(p);
            EXPECT_NE(c.version, 0u);
            EXPECT_EQ(c.current & bit, 0u);
            EXPECT_EQ(t.version, c.version);
            EXPECT_EQ(t.src, c.owner);
            EXPECT_EQ(t.producer, c.producer);
          }
          shipped += t.rect.volume();
        }
        // Disjoint transfers of stale cells only, as many cells as are
        // stale: exactly the stale cells.
        EXPECT_EQ(shipped, stale);
        for (const Point& p : rect)
          if (cell(p).version != 0) cell(p).current |= bit;
      }

      const std::vector<VersionMap::Entry> entries = vm.entries(mf.root, 0);
      int64_t covered = 0;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const VersionMap::Entry& e = entries[i];
        for (std::size_t j = i + 1; j < entries.size(); ++j)
          EXPECT_FALSE(e.rect.overlaps(entries[j].rect));
        for (const Point& p : e.rect) {
          const Cell& c = cell(p);
          EXPECT_EQ(e.version, c.version);
          EXPECT_EQ(e.owner, c.owner);
          EXPECT_EQ(e.current, c.current);
        }
        covered += e.rect.volume();
      }
      const auto written = std::count_if(cells.begin(), cells.end(),
                                         [](const Cell& c) { return c.version != 0; });
      EXPECT_EQ(covered, written);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

// --- differential wire-configuration tests ---------------------------------

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

void run_stencil(RuntimeApi& rt, const Grid& g, TaskFnId stencil,
                 TaskFnId increment, int iters) {
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
                         .with_task(stencil)
                         .scalars(args)
                         .region(g.region, g.halos, id, {g.fin},
                                 Privilege::kRead)
                         .region(g.region, g.blocks, id, {g.fout},
                                 Privilege::kReadWrite));
    rt.execute_index(IndexLauncher::over(dom)
                         .with_task(increment)
                         .scalars(args)
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

struct PlaneRun {
  std::vector<double> fin, fout;
  FaultReport report;
  DataPlaneStats stats;
  bool delta = false;
};

/// Where a run's worker ranks live: forked child processes, threads of this
/// process (the `sharded` backend), or exec mode, where each worker is a
/// WorkerSession::serve thread behind its own TCP listener, rebuilding its
/// forest from the setup journal as an idxl-noded daemon does.
enum class Placement { kFork, kInProcess, kExec };

/// The placements every differential test runs under. Exec mode needs a
/// listener per worker, so only run_plane supports it.
constexpr Placement kPlacements[] = {Placement::kFork, Placement::kInProcess};

const char* placement_name(Placement placement) {
  switch (placement) {
    case Placement::kFork:
      return "fork";
    case Placement::kInProcess:
      return "in-process";
    case Placement::kExec:
      return "exec";
  }
  return "";
}

PlaneRun run_plane(Placement placement, uint32_t ranks, bool delta, bool p2p,
                   bool fail_links,
                   std::shared_ptr<const FaultPlan> plan = nullptr) {
  DistConfig dc;
  dc.ranks = ranks;
  dc.in_process = placement == Placement::kInProcess;
  dc.runtime.workers = 2;
  dc.runtime.fault_plan = std::move(plan);
  dc.delta_transfers = delta;
  dc.p2p = p2p;
  dc.fail_peer_links = fail_links;
  std::vector<std::thread> daemons;
  if (placement == Placement::kExec) {
    for (uint32_t r = 1; r < ranks; ++r) {
      net::Socket listener = net::Socket::listen_tcp(0);
      dc.workers.push_back("127.0.0.1:" + std::to_string(listener.bound_port()));
      daemons.emplace_back([listener = std::move(listener)] {
        try {
          WorkerSession::serve(listener.accept());
        } catch (const std::exception&) {
          // The driver reports the lost rank.
        }
      });
    }
  }
  PlaneRun out;
  {
    DistributedRuntime rt(dc);
    const Grid g = make_grid(rt.forest());
    init_grid(rt.forest(), g);
    const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
    const TaskFnId inc =
        rt.register_task("smoke_increment", smoke::increment_body);
    run_stencil(rt, g, st, inc, kIters);
    out.stats = rt.data_plane_stats();
    out.delta = rt.delta_transfers();
    out.fin = read_field(rt, g, g.fin);
    out.fout = read_field(rt, g, g.fout);
    out.report = rt.fault_report();
  }
  for (std::thread& t : daemons) t.join();
  return out;
}

std::vector<double> local_reference(
    std::shared_ptr<const FaultPlan> plan, std::vector<double>* fin_out,
    FaultReport* report_out) {
  RuntimeConfig rc;
  rc.workers = 2;
  rc.fault_plan = std::move(plan);
  Runtime rt(std::move(rc));
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  // Id parity with the dist backend's pre-registered fill/xfer pair.
  (void)rt.register_task("idxl_dist_fill", [](TaskContext&) {});
  (void)rt.register_task("idxl_xfer", [](TaskContext&) {});
  const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
  const TaskFnId inc =
      rt.register_task("smoke_increment", smoke::increment_body);
  run_stencil(rt, g, st, inc, kIters);
  if (fin_out) *fin_out = read_field(rt, g, g.fin);
  if (report_out) *report_out = rt.fault_report();
  return read_field(rt, g, g.fout);
}

TEST(DataPlaneTest, ThreeConfigurationsBitIdentical) {
  std::vector<double> ref_fin;
  const std::vector<double> ref_fout =
      local_reference(nullptr, &ref_fin, nullptr);
  constexpr uint32_t kRanks = 3;
  // Each iteration's two launches write the whole grid once each.
  constexpr uint64_t kWrittenBytes = kIters * 2 * kNx * kNy * sizeof(double);
  // This program's delta plan on 3 ranks, exactly. Each rank plans it from
  // its own copy of the launch stream, so every placement moves these counts.
  constexpr uint64_t kTransfers = 24;
  // Relay plane: every payload crosses the driver's links (a worker-to-worker
  // payload twice).
  constexpr uint64_t kRelayBytes = 1568;
  // P2p plane: worker-to-worker payloads on direct links, the rest (to or
  // from rank 0) on the driver's links.
  constexpr uint64_t kP2pBytes = 384;
  constexpr uint64_t kP2pRelayBytes = 800;

  const auto check_result = [&](const PlaneRun& r) {
    EXPECT_TRUE(r.report.ok());
    EXPECT_EQ(r.fout, ref_fout);
    EXPECT_EQ(r.fin, ref_fin);
  };
  // Every delta payload byte on its expected route, none on the star hub.
  const auto check_delta = [&](const PlaneRun& r, uint64_t relay_bytes,
                               uint64_t p2p_bytes) {
    EXPECT_EQ(r.stats.transfers, kTransfers);
    EXPECT_EQ(r.stats.bytes_relay, relay_bytes);
    EXPECT_EQ(r.stats.bytes_p2p, p2p_bytes);
    EXPECT_EQ(r.stats.bytes_hub, 0u);
  };

  for (const Placement placement :
       {Placement::kFork, Placement::kInProcess, Placement::kExec}) {
    SCOPED_TRACE(placement_name(placement));
    const PlaneRun hub =
        run_plane(placement, kRanks, /*delta=*/false, /*p2p=*/false, false);
    const PlaneRun relay =
        run_plane(placement, kRanks, /*delta=*/true, /*p2p=*/false, false);
    check_result(hub);
    check_result(relay);
    // Exact accounting, counted once per wire hop: every written byte
    // reaches each of the other ranks over one hop (the driver's own
    // outcomes) or two (a worker's, relayed by the driver).
    EXPECT_EQ(hub.stats.bytes_hub, (kRanks - 1) * kWrittenBytes);
    EXPECT_EQ(hub.stats.bytes_delta(), 0u);
    EXPECT_EQ(hub.stats.transfers, 0u);
    check_delta(relay, kRelayBytes, 0);
    // The point of the delta plane: strictly fewer payload bytes than the
    // star-hub broadcast of every written block to every rank.
    EXPECT_LT(relay.stats.bytes_total(), hub.stats.bytes_total());

    // Exec-mode workers have no direct links, so no p2p plane runs there.
    if (placement == Placement::kExec) continue;
    const PlaneRun p2p =
        run_plane(placement, kRanks, /*delta=*/true, /*p2p=*/true, false);
    check_result(p2p);
    check_delta(p2p, kP2pRelayBytes, kP2pBytes);
    // A payload relayed via the driver crosses two wires where a direct one
    // crosses one.
    EXPECT_EQ(relay.stats.bytes_relay,
              p2p.stats.bytes_relay + 2 * p2p.stats.bytes_p2p);
    EXPECT_LT(p2p.stats.bytes_total(), hub.stats.bytes_total());
  }
}

// Every rank counts its own data-plane bytes and transfers in its runtime's
// registry. The counters reach the driver in each fence ack's metrics
// snapshot, like every other per-rank counter, and the run-wide totals are
// their rank="all" rows.
TEST(DataPlaneTest, CountersLiveInEachRanksRegistry) {
  DistConfig dc;
  dc.ranks = 3;
  dc.in_process = true;
  dc.runtime.workers = 2;
  dc.delta_transfers = true;
  dc.p2p = true;
  DistributedRuntime rt(dc);
  const Grid g = make_grid(rt.forest());
  init_grid(rt.forest(), g);
  const TaskFnId st = rt.register_task("smoke_stencil", smoke::stencil_body);
  const TaskFnId inc = rt.register_task("smoke_increment", smoke::increment_body);
  run_stencil(rt, g, st, inc, kIters);
  const DataPlaneStats stats = rt.data_plane_stats();
  const obs::MetricsSnapshot m = rt.cluster_metrics();

  const std::vector<std::pair<obs::Labels, uint64_t>> bytes = {
      {{{"kind", "full"}, {"route", "hub"}}, stats.bytes_hub},
      {{{"kind", "delta"}, {"route", "relay"}}, stats.bytes_relay},
      {{{"kind", "delta"}, {"route", "p2p"}}, stats.bytes_p2p}};
  const auto ranked = [](obs::Labels labels, const char* rank) {
    labels.emplace_back("rank", rank);
    return labels;
  };
  for (const char* rank : {"0", "1", "2"}) {
    SCOPED_TRACE(std::string("rank ") + rank);
    for (const auto& [route, total] : bytes)
      EXPECT_NE(m.series("idxl_net_data_bytes_total", ranked(route, rank)), nullptr);
    EXPECT_NE(m.series("idxl_net_transfers_total", {{"rank", rank}}), nullptr);
  }
  for (const auto& [route, total] : bytes)
    EXPECT_EQ(m.value("idxl_net_data_bytes_total", ranked(route, "all")), total);
  EXPECT_EQ(m.value("idxl_net_transfers_total", {{"rank", "all"}}), stats.transfers);
  // The program moves payloads on both delta routes, so the rows compare
  // real counts.
  EXPECT_GT(stats.bytes_relay, 0u);
  EXPECT_GT(stats.bytes_p2p, 0u);
  EXPECT_GT(stats.transfers, 0u);
}

TEST(DataPlaneTest, SeveredPeerLinksFallBackToRelay) {
  // fail_peer_links brings the direct links up, then severs them before
  // first use: every delta payload must fail over to the driver relay and
  // the answer must not change.
  const std::vector<double> ref_fout = local_reference(nullptr, nullptr, nullptr);
  const PlaneRun broken = run_plane(Placement::kFork, 3, /*delta=*/true,
                                    /*p2p=*/true, /*fail_links=*/true);
  EXPECT_TRUE(broken.report.ok());
  EXPECT_EQ(broken.fout, ref_fout);
  EXPECT_EQ(broken.stats.bytes_p2p, 0u);
  EXPECT_GT(broken.stats.bytes_relay, 0u);
}

/// Config-independent fault identity. Both seq and launch ids are stream
/// positions, and delta transfer launches interleave the stream — so
/// normalize each report's launch ids to their rank among the launches the
/// report mentions (only user launches appear; internal transfers are kept
/// out of FaultReport), and pair that with the task's point.
struct FaultIds {
  std::vector<std::tuple<uint64_t, int64_t, int64_t>> failures, poisoned;
  friend bool operator==(const FaultIds& a, const FaultIds& b) {
    return a.failures == b.failures && a.poisoned == b.poisoned;
  }
};

FaultIds fault_ids(const FaultReport& report) {
  std::vector<uint64_t> launches;
  for (const TaskFault& f : report.failures) launches.push_back(f.launch);
  for (const TaskFault& f : report.poisoned) launches.push_back(f.launch);
  std::sort(launches.begin(), launches.end());
  launches.erase(std::unique(launches.begin(), launches.end()),
                 launches.end());
  const auto rank_of = [&](uint64_t launch) {
    return static_cast<uint64_t>(
        std::lower_bound(launches.begin(), launches.end(), launch) -
        launches.begin());
  };
  FaultIds out;
  const auto collect = [&](const std::vector<TaskFault>& faults,
                           std::vector<std::tuple<uint64_t, int64_t, int64_t>>&
                               ids) {
    for (const TaskFault& f : faults)
      ids.emplace_back(rank_of(f.launch), f.point[0],
                       f.point.dim > 1 ? f.point[1] : 0);
    std::sort(ids.begin(), ids.end());
  };
  collect(report.failures, out.failures);
  collect(report.poisoned, out.poisoned);
  return out;
}

TEST(DataPlaneTest, PoisonClosureAgreesAcrossConfigurations) {
  // Inject a remote fault and compare the merged reports: the relay and p2p
  // planes replicate the identical stream, so their reports match field for
  // field; the star-hub run numbers its (xfer-free) stream differently but
  // must fail and poison the same user tasks, and every configuration's
  // survivor data must match the local reference.
  auto plan = std::make_shared<const FaultPlan>(
      FaultPlan().fail(/*launch=*/0, Point::p2(1, 1)));
  std::vector<double> ref_fin;
  FaultReport ref_report;
  const std::vector<double> ref_fout =
      local_reference(plan, &ref_fin, &ref_report);
  ASSERT_FALSE(ref_report.ok());

  const FaultIds ref_ids = fault_ids(ref_report);
  for (const Placement placement : kPlacements) {
    SCOPED_TRACE(placement_name(placement));
    const PlaneRun hub = run_plane(placement, 2, false, false, false, plan);
    const PlaneRun relay = run_plane(placement, 2, true, false, false, plan);
    const PlaneRun p2p = run_plane(placement, 2, true, true, false, plan);

    EXPECT_EQ(relay.report.failures, p2p.report.failures);
    EXPECT_EQ(relay.report.poisoned, p2p.report.poisoned);

    for (const PlaneRun* r : {&hub, &relay, &p2p}) {
      EXPECT_TRUE(fault_ids(r->report) == ref_ids);
      EXPECT_EQ(r->fout, ref_fout);
      EXPECT_EQ(r->fin, ref_fin);
    }
  }
}

/// Two ranks over one two-cell region partitioned into cells: point i of a
/// launch over Domain::line(2) runs on rank i. Point i adds 1 + i to every
/// cell of its footprint, by reduction (`reduce`) or read-write (`add`).
struct TwoCells {
  DistributedRuntime rt;
  FieldId f = 0;
  RegionId region;
  PartitionId cells;
  TaskFnId reduce = 0, add = 0;

  static DistConfig config(Placement placement, bool delta, bool p2p) {
    DistConfig dc;
    dc.ranks = 2;
    dc.in_process = placement == Placement::kInProcess;
    dc.runtime.workers = 1;
    dc.delta_transfers = delta;
    dc.p2p = p2p;
    return dc;
  }

  TwoCells(Placement placement, bool delta, bool p2p)
      : rt(config(placement, delta, p2p)) {
    RegionForest& forest = rt.forest();
    const IndexSpaceId is = forest.create_index_space(Domain::line(2));
    const FieldSpaceId fs = forest.create_field_space();
    f = forest.allocate_field(fs, sizeof(double), "v");
    region = forest.create_region(is, fs);
    cells = partition_equal(forest, is, Rect::line(2));
    reduce = rt.register_task("reduce", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each([&](const Point& p) {
        acc.reduce(p, static_cast<double>(1 + ctx.point[0]));
      });
    });
    add = rt.register_task("add", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each([&](const Point& p) {
        acc.write(p, acc.read(p) + static_cast<double>(1 + ctx.point[0]));
      });
    });
  }

  LaunchResult launch(TaskFnId task, ProjectionFunctor functor) {
    const bool red = task == reduce;
    return rt.execute_index(
        IndexLauncher::over(Domain::line(2))
            .with_task(task)
            .region(region, cells, std::move(functor), {f},
                    red ? Privilege::kReduce : Privilege::kReadWrite,
                    red ? ReductionOp::kSum : ReductionOp::kNone));
  }

  std::vector<double> values() {
    auto acc = rt.read_region<double>(region, f);
    return {acc.read(Point::p1(0)), acc.read(Point::p1(1))};
  }
};

/// (delta, p2p, name) for the three data planes.
struct Plane {
  bool delta, p2p;
  const char* name;
};
constexpr Plane kPlanes[] = {
    {false, false, "star-hub"}, {true, false, "relay"}, {true, true, "p2p"}};

TEST(DataPlaneTest, SameLaunchReductionsIntoOneColorAgree) {
  // Both points of one launch fold into color 0, and with two ranks they
  // execute on different ranks. The second point's read half must not be
  // routed a transfer whose producer is the first point: that launch has
  // not reached the workers yet. Every rank sees the launch alias across
  // ranks and its owners ship full outcomes instead, on every plane.
  for (const Placement placement : kPlacements) {
    for (const Plane& plane : kPlanes) {
      SCOPED_TRACE(std::string(placement_name(placement)) + " " + plane.name);
      TwoCells tc(placement, plane.delta, plane.p2p);
      tc.launch(tc.reduce, ProjectionFunctor::symbolic({make_const(0)}));
      tc.rt.wait_all();
      EXPECT_TRUE(tc.rt.fault_report().ok());
      EXPECT_EQ(tc.values(), (std::vector<double>{3.0, 0.0}));
    }
  }
}

TEST(DataPlaneTest, SameLaunchReadWriteAliasAgrees) {
  // An unsafe launch: both points read-write color 0 on different ranks,
  // so it runs as the sequential task loop and the second point must see
  // the first point's write. Same mechanism as the reductions above; a
  // safe launch afterwards is planned on deltas again.
  for (const Placement placement : kPlacements) {
    for (const Plane& plane : kPlanes) {
      SCOPED_TRACE(std::string(placement_name(placement)) + " " + plane.name);
      TwoCells tc(placement, plane.delta, plane.p2p);
      EXPECT_FALSE(tc.launch(tc.add, ProjectionFunctor::symbolic({make_const(0)}))
                       .ran_as_index_launch);
      tc.launch(tc.add, ProjectionFunctor::identity(1));
      tc.rt.wait_all();
      EXPECT_TRUE(tc.rt.fault_report().ok());
      EXPECT_EQ(tc.values(), (std::vector<double>{4.0, 2.0}));
    }
  }
}

TEST(DataPlaneTest, DisjointReductionsStayOnTheDeltaPlane) {
  // Points reducing into their own colors alias nothing: their outcomes
  // stay on the owning rank and only the read-back moves rank 1's cell.
  for (const Placement placement : kPlacements) {
    SCOPED_TRACE(placement_name(placement));
    TwoCells tc(placement, /*delta=*/true, /*p2p=*/true);
    tc.launch(tc.reduce, ProjectionFunctor::identity(1));
    EXPECT_EQ(tc.values(), (std::vector<double>{1.0, 2.0}));
    const DataPlaneStats stats = tc.rt.data_plane_stats();
    EXPECT_EQ(stats.bytes_hub, 0u);
    EXPECT_EQ(stats.bytes_delta(), sizeof(double));
  }
}

TEST(DataPlaneTest, StarHubWorkerRefusesRecall) {
  // A recall is planned on the delta plane's version map; a star-hub worker
  // has none, so it must end its session on one, as on any other unexpected
  // frame, and never answer the driver's shutdown.
  auto [driver_end, worker_end] = net::Socket::pair();
  std::thread worker([sock = std::move(worker_end)]() mutable {
    RuntimeConfig rc;
    rc.workers = 1;
    WorkerSession session(std::move(sock), /*rank=*/1, /*nranks=*/2, std::move(rc),
                          std::make_shared<RegionForest>(), {},
                          /*heartbeat_period_ms=*/1000, /*stall_window_ms=*/10000);
    session.run();
  });
  net::Connection driver(std::move(driver_end), "worker", net::NetObs{});
  driver.send(static_cast<uint8_t>(Msg::kRecall), {});
  driver.send(static_cast<uint8_t>(Msg::kShutdown), {});
  std::vector<uint8_t> got;
  driver.recv_loop([&](net::Frame& frame) { got.push_back(frame.type); });
  worker.join();
  driver.close();
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.front(), static_cast<uint8_t>(Msg::kHelloAck));
  EXPECT_EQ(std::count(got.begin(), got.end(), static_cast<uint8_t>(Msg::kBye)), 0);
}

TEST(VersionMapTest, RejectsRanksBeyondMaskWidth) {
  // The currency mask is 64 bits wide; DistributedRuntime auto-disables the
  // delta plane past that, so the map itself must refuse rather than wrap.
  RegionForest forest;
  EXPECT_THROW(VersionMap(65, forest), RuntimeError);
  EXPECT_NO_THROW(VersionMap(64, forest));
}

}  // namespace
}  // namespace idxl::dist
