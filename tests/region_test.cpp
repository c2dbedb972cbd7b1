#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <set>
#include <span>
#include <string>
#include <utility>

#include "region/accessor.hpp"
#include "region/bvh.hpp"
#include "region/offset_index.hpp"
#include "region/partition_ops.hpp"
#include "region/region_forest.hpp"
#include "support/bitvector.hpp"
#include "support/rng.hpp"

namespace idxl {
namespace {

// ---------- Point / Rect ----------

TEST(PointTest, ConstructionAndIndexing) {
  const Point p = Point::p3(1, -2, 3);
  EXPECT_EQ(p.dim, 3);
  EXPECT_EQ(p[0], 1);
  EXPECT_EQ(p[1], -2);
  EXPECT_EQ(p[2], 3);
  EXPECT_EQ(p.to_string(), "(1,-2,3)");
}

TEST(PointTest, Arithmetic) {
  const Point a = Point::p2(3, 4), b = Point::p2(1, -1);
  EXPECT_EQ(a + b, Point::p2(4, 3));
  EXPECT_EQ(a - b, Point::p2(2, 5));
}

TEST(PointTest, LexicographicOrder) {
  EXPECT_LT(Point::p2(0, 5), Point::p2(1, 0));
  EXPECT_LT(Point::p2(1, 0), Point::p2(1, 1));
  EXPECT_FALSE(Point::p2(1, 1) < Point::p2(1, 1));
}

TEST(RectTest, VolumeAndEmpty) {
  EXPECT_EQ(Rect::line(10).volume(), 10);
  EXPECT_EQ(Rect::box2(3, 4).volume(), 12);
  EXPECT_EQ(Rect::box3(2, 3, 4).volume(), 24);
  Rect empty(Point::p1(5), Point::p1(4));
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.volume(), 0);
}

TEST(RectTest, ContainsAndIntersection) {
  const Rect r = Rect::box2(10, 10);
  EXPECT_TRUE(r.contains(Point::p2(0, 0)));
  EXPECT_TRUE(r.contains(Point::p2(9, 9)));
  EXPECT_FALSE(r.contains(Point::p2(10, 0)));
  const Rect s(Point::p2(5, 5), Point::p2(14, 14));
  const Rect i = r.intersection(s);
  EXPECT_EQ(i, Rect(Point::p2(5, 5), Point::p2(9, 9)));
  const Rect far(Point::p2(20, 20), Point::p2(30, 30));
  EXPECT_TRUE(r.intersection(far).empty());
  EXPECT_FALSE(r.overlaps(far));
}

TEST(RectTest, LinearizeRoundTrip) {
  const Rect r(Point::p3(-1, 2, 0), Point::p3(3, 4, 2));
  int64_t expected = 0;
  for (const Point& p : r) {
    EXPECT_EQ(r.linearize(p), expected);
    EXPECT_EQ(r.delinearize(expected), p);
    ++expected;
  }
  EXPECT_EQ(expected, r.volume());
}

TEST(RectTest, IterationCoversRowMajor) {
  const Rect r = Rect::box2(2, 3);
  std::vector<Point> pts(r.begin(), r.end());
  ASSERT_EQ(pts.size(), 6u);
  EXPECT_EQ(pts[0], Point::p2(0, 0));
  EXPECT_EQ(pts[1], Point::p2(0, 1));
  EXPECT_EQ(pts[3], Point::p2(1, 0));
  EXPECT_EQ(pts[5], Point::p2(1, 2));
}

TEST(RectTest, EmptyIterationYieldsNothing) {
  Rect empty(Point::p1(1), Point::p1(0));
  EXPECT_EQ(empty.begin(), empty.end());
}

// ---------- Domain ----------

TEST(DomainTest, DenseBasics) {
  const Domain d = Domain::line(100);
  EXPECT_TRUE(d.dense());
  EXPECT_EQ(d.volume(), 100);
  EXPECT_TRUE(d.contains(Point::p1(0)));
  EXPECT_TRUE(d.contains(Point::p1(99)));
  EXPECT_FALSE(d.contains(Point::p1(100)));
}

TEST(DomainTest, SparseDeduplicatesAndSorts) {
  const Domain d = Domain::from_points(
      {Point::p1(5), Point::p1(1), Point::p1(5), Point::p1(9)});
  EXPECT_FALSE(d.dense());
  EXPECT_EQ(d.volume(), 3);
  EXPECT_TRUE(d.contains(Point::p1(5)));
  EXPECT_FALSE(d.contains(Point::p1(2)));
  const auto pts = d.points();
  EXPECT_TRUE(std::is_sorted(pts.begin(), pts.end()));
}

TEST(DomainTest, SparseThatFillsBoxNormalizesToDense) {
  const Domain d = Domain::from_points(
      {Point::p1(2), Point::p1(3), Point::p1(4)});
  EXPECT_TRUE(d.dense());
  EXPECT_EQ(d.bounds(), Rect(Point::p1(2), Point::p1(4)));
}

TEST(DomainTest, DisjointFrom) {
  const Domain a = Domain::line(10);
  const Domain b(Rect(Point::p1(10), Point::p1(19)));
  EXPECT_TRUE(a.disjoint_from(b));
  const Domain c(Rect(Point::p1(9), Point::p1(12)));
  EXPECT_FALSE(a.disjoint_from(c));
  // Sparse vs dense with overlapping bounds but no common points.
  const Domain sparse = Domain::from_points({Point::p1(10), Point::p1(14)});
  const Domain dense(Rect(Point::p1(11), Point::p1(13)));
  EXPECT_TRUE(sparse.disjoint_from(dense));
  EXPECT_TRUE(dense.disjoint_from(sparse));
}

TEST(DomainTest, ContainsDomain) {
  const Domain a = Domain::line(10);
  EXPECT_TRUE(a.contains_domain(Domain::from_points({Point::p1(0), Point::p1(9)})));
  EXPECT_FALSE(a.contains_domain(Domain::from_points({Point::p1(0), Point::p1(10)})));
  EXPECT_TRUE(a.contains_domain(Domain::from_points({})));
}

TEST(DomainTest, Intersection) {
  const Domain a(Rect::line(10));
  const Domain b = Domain::from_points({Point::p1(3), Point::p1(12)});
  const Domain i = a.intersection(b);
  EXPECT_EQ(i.volume(), 1);
  EXPECT_TRUE(i.contains(Point::p1(3)));
}

TEST(DomainTest, DiagonalSliceIsSparse) {
  // 3-D diagonal wavefront, the DOM sweep launch-domain shape.
  std::vector<Point> wave;
  const int n = 4;
  for (int x = 0; x < n; ++x)
    for (int y = 0; y < n; ++y)
      for (int z = 0; z < n; ++z)
        if (x + y + z == 3) wave.push_back(Point::p3(x, y, z));
  const Domain d = Domain::from_points(wave);
  EXPECT_FALSE(d.dense());
  EXPECT_EQ(d.volume(), 10);  // C(3+2,2)
}

// `p` moved `by` steps along its last axis.
Point along_last(Point p, int64_t by) {
  p[p.dim - 1] += by;
  return p;
}

TEST(DomainTest, RunsReproduceForEach) {
  std::vector<Point> wave;  // the diagonal slice of DiagonalSliceIsSparse
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y)
      for (int z = 0; z < 4; ++z)
        if (x + y + z == 3) wave.push_back(Point::p3(x, y, z));
  // A gap inside row 0, and rows 1 and 2 whose last coordinates continue
  // row 0's and each other's: a run never crosses a row break.
  const Domain gappy = Domain::from_points({Point::p2(0, 0), Point::p2(0, 1), Point::p2(0, 3),
                                            Point::p2(0, 4), Point::p2(0, 5), Point::p2(1, 6),
                                            Point::p2(2, 7), Point::p2(2, 8)});
  struct Case {
    Domain domain;
    std::size_t runs;
  };
  const std::vector<Case> cases = {
      {Domain(Rect(Point::p1(3), Point::p1(9))), 1},
      {Domain(Rect(Point::p2(1, 2), Point::p2(3, 5))), 3},
      {Domain(Rect(Point::p3(0, 1, 2), Point::p3(2, 2, 4))), 6},
      {gappy, 4},
      {Domain::from_points(wave), 10},
      {Domain::from_points({}), 0},
      {Domain(Rect(Point::p2(0, 0), Point::p2(-1, 3))), 0},
  };
  for (const Case& c : cases) {
    const Domain& d = c.domain;
    SCOPED_TRACE(d.to_string());
    std::vector<Point> expect;
    d.for_each([&](const Point& p) { expect.push_back(p); });
    std::vector<Point> got;
    std::size_t runs = 0;
    d.for_each_run([&](const Point& lo, int64_t n) {
      ++runs;
      ASSERT_GE(n, 1);
      for (int64_t i = 0; i < n; ++i) got.push_back(along_last(lo, i));
      EXPECT_TRUE(d.contains_run(lo, n));
      EXPECT_TRUE(d.contains_run(along_last(lo, 1), n - 1));
      // Maximal: the points just before and after are not in the domain,
      // and the run extended by one point at either end is not contained.
      EXPECT_FALSE(d.contains(along_last(lo, -1)));
      EXPECT_FALSE(d.contains(along_last(lo, n)));
      EXPECT_FALSE(d.contains_run(along_last(lo, -1), n + 1));
      EXPECT_FALSE(d.contains_run(lo, n + 1));
      EXPECT_FALSE(d.contains_run(lo, -1));
    });
    EXPECT_EQ(runs, c.runs);
    EXPECT_EQ(got, expect);
  }
  // Both ends of (0, 1)..(0, 3) are in `gappy`, (0, 2) is not.
  EXPECT_FALSE(gappy.contains_run(Point::p2(0, 1), 3));
  EXPECT_TRUE(gappy.contains_run(Point::p2(0, 3), 3));
  EXPECT_FALSE(gappy.contains_run(Point::p2(0, 5), 2));  // row break
  EXPECT_TRUE(gappy.contains_run(Point::p2(5, 5), 0));
}

TEST(DomainTest, BoxVolumeMustFitInt64) {
  // 1-D: the full coordinate range has 2^64 points.
  EXPECT_THROW(Domain::from_points({Point::p1(INT64_MIN), Point::p1(INT64_MAX)}),
               RuntimeError);
  EXPECT_THROW(Domain::from_points({Point::p1(-1), Point::p1(INT64_MAX)}), RuntimeError);
  // 2-D: each extent fits, their product does not.
  EXPECT_THROW(Domain::from_points({Point::p2(0, 0), Point::p2(int64_t{1} << 32,
                                                              int64_t{1} << 32)}),
               RuntimeError);
  EXPECT_THROW(Domain::from_points({Point::p2(INT64_MIN, 0), Point::p2(INT64_MAX, 1)}),
               RuntimeError);
  EXPECT_FALSE(Rect(Point::p1(INT64_MIN), Point::p1(INT64_MAX)).checked_volume());
  // The largest box that fits: INT64_MAX points, keyed up to INT64_MAX - 1.
  const Domain edge = Domain::from_points(
      {Point::p1(INT64_MIN), Point::p1(-7), Point::p1(-3), Point::p1(-2)});
  EXPECT_EQ(edge.bounds().checked_volume(), INT64_MAX);
  EXPECT_EQ(edge.volume(), 4);
  EXPECT_TRUE(edge.contains(Point::p1(INT64_MIN)));
  EXPECT_TRUE(edge.contains(Point::p1(-2)));
  EXPECT_FALSE(edge.contains(Point::p1(-4)));
  EXPECT_FALSE(edge.contains(Point::p1(INT64_MAX)));
  EXPECT_EQ(edge.linear_index(Point::p1(-2)), 3);
  EXPECT_TRUE(edge.contains_run(Point::p1(-3), 2));
  EXPECT_FALSE(edge.contains_run(Point::p1(-2), 2));
  EXPECT_EQ(Domain::from_points({Point::p2(0, INT64_MIN), Point::p2(0, -2)}).volume(), 2);
}

TEST(DomainTest, MixedDimensionListThrows) {
  EXPECT_THROW(Domain::from_points({Point::p1(0), Point::p2(0, 1)}), RuntimeError);
}

// The sparse index against a std::set model: membership, rank, runs and the
// set operations, on random point lists in 1-4 D with negative coordinates,
// single points, lists that fill their box (dense after normalization) and
// rows split by gaps, and on copies and moves of each domain.
using PointSet = std::set<Point>;

PointSet random_points(Rng& rng, int dim, const Rect& box) {
  PointSet pts;
  switch (rng.next_below(5)) {
    case 0:  // one point
      pts.insert(box.lo);
      break;
    case 1:  // the whole box
      for (const Point& p : box) pts.insert(p);
      break;
    case 2: {  // rows split at one column each, the rest of the box dropped
      const int64_t cut = rng.next_in(box.lo[dim - 1], box.hi[dim - 1]);
      for (const Point& p : box)
        if (p[dim - 1] != cut && rng.next_below(4) != 0) pts.insert(p);
      break;
    }
    default: {  // a random subset
      const uint64_t keep = 1 + rng.next_below(7);
      for (const Point& p : box)
        if (rng.next_below(8) < keep) pts.insert(p);
    }
  }
  if (pts.empty()) pts.insert(box.hi);  // an empty list has no dimension
  return pts;
}

Rect random_box(Rng& rng, int dim) {
  Point lo = Point::filled(dim, 0), hi = Point::filled(dim, 0);
  const int64_t max_extent = dim <= 2 ? 9 : 5;
  for (int i = 0; i < dim; ++i) {
    lo[i] = rng.next_in(-12, 4);
    hi[i] = lo[i] + rng.next_in(0, max_extent - 1);
  }
  return Rect(lo, hi);
}

Rect grown(const Rect& r) {
  Rect g = r;
  for (int i = 0; i < r.dim(); ++i) {
    --g.lo[i];
    ++g.hi[i];
  }
  return g;
}

void expect_matches_model(const Domain& d, const PointSet& model) {
  ASSERT_EQ(d.volume(), static_cast<int64_t>(model.size()));
  if (model.empty()) return;
  const Rect probe = grown(d.bounds());
  const int last = d.dim() - 1;
  for (const Point& p : probe) {
    const auto it = model.find(p);
    ASSERT_EQ(d.contains(p), it != model.end()) << p;
    if (it != model.end()) {
      ASSERT_EQ(d.linear_index(p), std::distance(model.begin(), it)) << p;
    }
    for (int64_t n = -1; n <= probe.hi[last] - p[last] + 1; ++n) {
      bool all = n >= 0;
      for (int64_t k = 0; all && k < n; ++k) all = model.count(along_last(p, k)) != 0;
      ASSERT_EQ(d.contains_run(p, n), all) << p << " n=" << n;
    }
  }
  std::vector<Point> walked;
  d.for_each_run([&](const Point& lo, int64_t n) {
    ASSERT_GE(n, 1);
    EXPECT_EQ(model.count(along_last(lo, -1)), 0u) << lo;
    EXPECT_EQ(model.count(along_last(lo, n)), 0u) << lo;
    for (int64_t k = 0; k < n; ++k) walked.push_back(along_last(lo, k));
  });
  EXPECT_EQ(walked, std::vector<Point>(model.begin(), model.end()));
}

TEST(DomainTest, SparseIndexMatchesSetModel) {
  for (uint64_t seed = 0; seed < 48; ++seed) {
    Rng rng(seed);
    const int dim = 1 + static_cast<int>(seed % 4);
    const PointSet ma = random_points(rng, dim, random_box(rng, dim));
    const PointSet mb = random_points(rng, dim, random_box(rng, dim));
    const Domain a = Domain::from_points(std::vector<Point>(ma.begin(), ma.end()));
    const Domain b = Domain::from_points(std::vector<Point>(mb.rbegin(), mb.rend()));
    SCOPED_TRACE("seed " + std::to_string(seed) + ": " + a.to_string() + " vs " +
                 b.to_string());
    EXPECT_EQ(a.dense(), static_cast<int64_t>(ma.size()) == a.bounds().volume());
    if (!a.dense()) {
      EXPECT_LE(a.index().max_probe(), OffsetIndex::kMaxProbe);
      EXPECT_LE(a.index().capacity(), 4 * ma.size());
    }

    Domain copy = a;
    const Domain moved = std::move(copy);
    Domain assigned;
    assigned = moved;
    for (const Domain* d : {&a, &moved, static_cast<const Domain*>(&assigned)})
      expect_matches_model(*d, ma);
    expect_matches_model(b, mb);

    PointSet both;
    std::set_intersection(ma.begin(), ma.end(), mb.begin(), mb.end(),
                          std::inserter(both, both.end()));
    EXPECT_EQ(a.disjoint_from(b), both.empty());
    EXPECT_EQ(b.disjoint_from(a), both.empty());
    expect_matches_model(a.intersection(b), both);
    EXPECT_EQ(a.contains_domain(b), std::includes(ma.begin(), ma.end(), mb.begin(), mb.end()));
    EXPECT_EQ(b.contains_domain(a), std::includes(mb.begin(), mb.end(), ma.begin(), ma.end()));
    EXPECT_TRUE(a.contains_domain(a.intersection(b)));
  }
}

// Offsets that all share the home slot of offset 0 in a table of `capacity`
// slots under `key`: a list aimed at one probe chain.
std::vector<int64_t> colliding_offsets(std::size_t count, uint64_t key, std::size_t capacity) {
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<int64_t> out;
  for (int64_t x = 0; out.size() < count; ++x)
    if (OffsetIndex::home(x, key, shift) == OffsetIndex::home(0, key, shift)) out.push_back(x);
  return out;
}

TEST(OffsetIndexTest, CraftedCollisionsStayWithinTheProbeBound) {
  const std::size_t n = 3 * OffsetIndex::kMaxProbe;
  const uint64_t key = 0x5eed;
  const std::vector<int64_t> offsets = colliding_offsets(n, key, std::bit_ceil(2 * n));
  const OffsetIndex index(offsets, key);
  // Under `key` the last offset placed would sit n - 1 slots past its home:
  // the build started over under another key, in a larger table.
  EXPECT_GT(index.capacity(), std::bit_ceil(2 * n));
  EXPECT_LE(index.max_probe(), OffsetIndex::kMaxProbe);
  for (std::size_t r = 0; r < n; ++r) EXPECT_EQ(index.find(offsets[r]), static_cast<int64_t>(r));
  const std::set<int64_t> present(offsets.begin(), offsets.end());
  for (int64_t x = 0; x <= offsets.back() + 1; ++x) {
    if (present.count(x) == 0) {
      ASSERT_EQ(index.find(x), -1) << x;
    }
  }
}

TEST(DomainTest, PointListCraftedToCollideStaysWithinTheProbeBound) {
  // 2-D points whose offsets in their bounding box all hash to one home slot
  // under this process's key. Offset 0 is among them, so the box starts at
  // (0, 0); one more point fixes its width. The table has 256 slots with or
  // without that point.
  const std::size_t n = 2 * OffsetIndex::kMaxProbe + 1;
  const int64_t width = 128;
  std::vector<Point> pts;
  for (int64_t x : colliding_offsets(n, OffsetIndex::process_key(), std::bit_ceil(2 * n)))
    pts.push_back(Point::p2(x / width, x % width));
  pts.push_back(Point::p2(0, width - 1));  // pins the box's width
  const Domain d = Domain::from_points(pts);
  ASSERT_FALSE(d.dense());
  ASSERT_EQ(d.bounds().lo, Point::p2(0, 0));
  ASSERT_EQ(d.bounds().hi[1], width - 1);
  // Aimed at the first table, the list made the build start over, in a
  // table twice as large.
  EXPECT_GT(d.index().capacity(), std::bit_ceil(2 * n));
  EXPECT_LE(d.index().max_probe(), OffsetIndex::kMaxProbe);
  const PointSet model(pts.begin(), pts.end());
  expect_matches_model(d, model);
}

// ---------- BitVector ----------

TEST(BitVectorTest, SetTestClear) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_FALSE(bv.any());
  bv.set(0);
  bv.set(64);
  bv.set(129);
  EXPECT_TRUE(bv.test(0));
  EXPECT_TRUE(bv.test(64));
  EXPECT_TRUE(bv.test(129));
  EXPECT_FALSE(bv.test(1));
  EXPECT_EQ(bv.count(), 3u);
  bv.clear();
  EXPECT_FALSE(bv.any());
}

TEST(BitVectorTest, TestAndSet) {
  BitVector bv(10);
  EXPECT_FALSE(bv.test_and_set(3));
  EXPECT_TRUE(bv.test_and_set(3));
}

TEST(BitVectorTest, Intersects) {
  BitVector a(100), b(100);
  a.set(50);
  b.set(51);
  EXPECT_FALSE(a.intersects(b));
  b.set(50);
  EXPECT_TRUE(a.intersects(b));
}

// ---------- RegionForest ----------

TEST(RegionForestTest, IndexAndFieldSpaces) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(16));
  EXPECT_EQ(forest.domain(is).volume(), 16);
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId f0 = forest.allocate_field(fs, sizeof(double), "x");
  const FieldId f1 = forest.allocate_field(fs, sizeof(int32_t), "flag");
  EXPECT_EQ(forest.field(fs, f0).size, sizeof(double));
  EXPECT_EQ(forest.field(fs, f1).name, "flag");
  EXPECT_EQ(forest.fields(fs).size(), 2u);
}

TEST(RegionForestTest, EqualPartition1D) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(10));
  const PartitionId p = partition_equal(forest, is, Rect::line(3));
  EXPECT_TRUE(forest.is_disjoint(p));
  EXPECT_TRUE(forest.verify_disjoint(p));
  // 10 into 3: sizes 4,3,3 and they tile the space.
  int64_t total = 0;
  for (const Point& c : forest.color_space(p))
    total += forest.domain(forest.subspace(p, c)).volume();
  EXPECT_EQ(total, 10);
  EXPECT_EQ(forest.domain(forest.subspace(p, Point::p1(0))).volume(), 4);
}

TEST(RegionForestTest, EqualPartition2D) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain(Rect::box2(8, 9)));
  const PartitionId p = partition_equal(forest, is, Rect::box2(2, 3));
  EXPECT_TRUE(forest.is_disjoint(p));
  int64_t total = 0;
  for (const Point& c : forest.color_space(p))
    total += forest.domain(forest.subspace(p, c)).volume();
  EXPECT_EQ(total, 72);
}

TEST(RegionForestTest, HaloPartitionIsAliased) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(12));
  const PartitionId blocks = partition_equal(forest, is, Rect::line(4));
  const PartitionId halos = partition_halo(forest, is, blocks, 1);
  EXPECT_FALSE(forest.is_disjoint(halos));
  EXPECT_FALSE(forest.verify_disjoint(halos));
  // Interior halo blocks are the 3-wide block grown by 1 on both sides.
  const Domain& h1 = forest.domain(forest.subspace(halos, Point::p1(1)));
  EXPECT_EQ(h1.bounds(), Rect(Point::p1(2), Point::p1(6)));
  // Boundary blocks clip to the parent.
  const Domain& h0 = forest.domain(forest.subspace(halos, Point::p1(0)));
  EXPECT_EQ(h0.bounds(), Rect(Point::p1(0), Point::p1(3)));
}

TEST(RegionForestTest, PartitionByColoring) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(20));
  const PartitionId p = partition_by_coloring(
      forest, is, Rect::line(4),
      [](const Point& pt) { return Point::p1(pt[0] % 4); });
  EXPECT_TRUE(forest.is_disjoint(p));
  const Domain& sub0 = forest.domain(forest.subspace(p, Point::p1(0)));
  EXPECT_EQ(sub0.volume(), 5);
  EXPECT_TRUE(sub0.contains(Point::p1(16)));
  EXPECT_FALSE(sub0.contains(Point::p1(17)));
}

TEST(RegionForestTest, MultiColoringMayAlias) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(10));
  const PartitionId p = partition_by_multi_coloring(
      forest, is, Rect::line(2), [](const Point& pt, std::vector<Point>& out) {
        out.push_back(Point::p1(0));
        if (pt[0] >= 5) out.push_back(Point::p1(1));
      });
  EXPECT_FALSE(forest.is_disjoint(p));
  EXPECT_EQ(forest.domain(forest.subspace(p, Point::p1(0))).volume(), 10);
  EXPECT_EQ(forest.domain(forest.subspace(p, Point::p1(1))).volume(), 5);
}

TEST(RegionForestTest, PartitionSubspaceMustStayInParent) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(10));
  EXPECT_THROW(forest.create_partition(is, Rect::line(1),
                                       {Domain(Rect(Point::p1(5), Point::p1(12)))},
                                       Disjointness::kAliased),
               RuntimeError);
}

TEST(RegionForestTest, SubregionViewsShareStorage) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(10));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId f = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId root = forest.create_region(is, fs);
  const PartitionId p = partition_equal(forest, is, Rect::line(2));
  const RegionId left = forest.subregion(root, p, Point::p1(0));
  const RegionId right = forest.subregion(root, p, Point::p1(1));
  EXPECT_NE(left, right);
  EXPECT_EQ(forest.field_data(left, f), forest.field_data(root, f));
  EXPECT_EQ(forest.field_data(right, f), forest.field_data(root, f));
  // Cached: same handle on repeat.
  EXPECT_EQ(forest.subregion(root, p, Point::p1(0)), left);
}

TEST(RegionForestTest, RegionsInterfere) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(10));
  const FieldSpaceId fs = forest.create_field_space();
  forest.allocate_field(fs, sizeof(double), "v");
  const RegionId r1 = forest.create_region(is, fs);
  const RegionId r2 = forest.create_region(is, fs);  // separate tree
  EXPECT_FALSE(forest.regions_interfere(r1, r2));
  const PartitionId p = partition_equal(forest, is, Rect::line(2));
  const RegionId a = forest.subregion(r1, p, Point::p1(0));
  const RegionId b = forest.subregion(r1, p, Point::p1(1));
  EXPECT_FALSE(forest.regions_interfere(a, b));  // disjoint siblings
  EXPECT_TRUE(forest.regions_interfere(a, r1));  // subregion vs root
}

TEST(RegionForestTest, AccessorReadWrite) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain(Rect::box2(4, 4)));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId f = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId root = forest.create_region(is, fs);
  {
    Accessor<double> w(forest, root, f, Privilege::kWrite);
    for (const Point& p : Rect::box2(4, 4)) w.write(p, static_cast<double>(p[0] * 10 + p[1]));
  }
  Accessor<double> r(forest, root, f, Privilege::kRead);
  EXPECT_DOUBLE_EQ(r.read(Point::p2(3, 2)), 32.0);
}

TEST(RegionForestTest, AccessorReduction) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(1));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId f = forest.allocate_field(fs, sizeof(double), "sum");
  const RegionId root = forest.create_region(is, fs);
  Accessor<double> red(forest, root, f, Privilege::kReduce, ReductionOp::kSum);
  red.reduce(Point::p1(0), 2.0);
  red.reduce(Point::p1(0), 3.5);
  Accessor<double> r(forest, root, f, Privilege::kRead);
  EXPECT_DOUBLE_EQ(r.read(Point::p1(0)), 5.5);
}

TEST(RegionForestTest, AccessorTypeSizeMismatchThrows) {
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(4));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId f = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId root = forest.create_region(is, fs);
  EXPECT_THROW((Accessor<int32_t>(forest, root, f, Privilege::kRead)), RuntimeError);
}

// ---------- RectBVH ----------

TEST(RectBVHTest, EmptyAndSingle) {
  RectBVH bvh;
  int hits = 0;
  bvh.query(Rect::line(10), [&](uint32_t) { ++hits; });
  EXPECT_EQ(hits, 0);

  bvh.build({{Rect::line(5), 42}});
  bvh.query(Rect(Point::p1(4), Point::p1(8)), [&](uint32_t id) {
    ++hits;
    EXPECT_EQ(id, 42u);
  });
  EXPECT_EQ(hits, 1);
}

TEST(RectBVHTest, MatchesBruteForceProperty) {
  Rng rng(55);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::pair<Rect, uint32_t>> items;
    const int n = static_cast<int>(rng.next_in(1, 200));
    for (int i = 0; i < n; ++i) {
      const int64_t x = rng.next_in(-100, 100), y = rng.next_in(-100, 100);
      items.emplace_back(
          Rect(Point::p2(x, y), Point::p2(x + rng.next_in(0, 20), y + rng.next_in(0, 20))),
          static_cast<uint32_t>(i));
    }
    RectBVH bvh;
    auto copy = items;
    bvh.build(std::move(copy));

    for (int q = 0; q < 20; ++q) {
      const int64_t x = rng.next_in(-110, 110), y = rng.next_in(-110, 110);
      const Rect query(Point::p2(x, y),
                       Point::p2(x + rng.next_in(0, 30), y + rng.next_in(0, 30)));
      std::vector<uint32_t> got;
      bvh.query(query, [&](uint32_t id) { got.push_back(id); });
      std::vector<uint32_t> expected;
      for (const auto& [rect, id] : items)
        if (rect.overlaps(query)) expected.push_back(id);
      std::sort(got.begin(), got.end());
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(got, expected);
    }
  }
}

TEST(RectBVHTest, PointQueryVisitsLogarithmically) {
  // 4096 disjoint unit intervals; a point query should visit O(log n)
  // nodes, far fewer than n.
  std::vector<std::pair<Rect, uint32_t>> items;
  for (int64_t i = 0; i < 4096; ++i)
    items.emplace_back(Rect(Point::p1(2 * i), Point::p1(2 * i)),
                       static_cast<uint32_t>(i));
  RectBVH bvh;
  bvh.build(std::move(items));
  int hits = 0;
  bvh.query(Rect(Point::p1(1000), Point::p1(1000)), [&](uint32_t) { ++hits; });
  EXPECT_EQ(hits, 1);
  EXPECT_LT(bvh.last_query_visits(), 200u);  // ~12 levels * small constants
}

// ---------- RegionForest::overlapping (the overlap index) ----------

/// One index-space tree as the tests build it: the root and every subspace
/// added so far, for the brute-force side of the comparison.
struct TreeMembers {
  std::vector<IndexSpaceId> members;

  void add(const RegionForest& forest, PartitionId p) {
    for (const Point& color : forest.color_space(p))
      members.push_back(forest.subspace(p, color));
  }
};

std::vector<uint32_t> ids_of(std::span<const IndexSpaceId> list) {
  std::vector<uint32_t> out;
  for (IndexSpaceId is : list) out.push_back(is.id);
  return out;
}

/// The members of `tree` whose bounds overlap `is`'s, sorted by id.
std::vector<uint32_t> brute_overlaps(const RegionForest& forest, const TreeMembers& tree,
                                     IndexSpaceId is) {
  const Rect& bounds = forest.domain(is).bounds();
  std::vector<uint32_t> out;
  for (IndexSpaceId m : tree.members) {
    const Rect& mb = forest.domain(m).bounds();
    if (!bounds.empty() && !mb.empty() && mb.overlaps(bounds)) out.push_back(m.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void expect_index_matches_brute_force(RegionForest& forest, const TreeMembers& tree) {
  for (IndexSpaceId is : tree.members) {
    SCOPED_TRACE("index space " + std::to_string(is.id));
    EXPECT_EQ(ids_of(forest.overlapping(is)), brute_overlaps(forest, tree, is));
  }
}

TEST(OverlapIndexTest, MatchesBruteForceAcrossPartitionKindsAndTrees) {
  RegionForest forest;
  // Tree A: a 2-D grid with dense blocks, an aliased halo, a sparse image, a
  // nested partition of one block, and a partition with an empty color.
  TreeMembers a;
  const IndexSpaceId grid = forest.create_index_space(Domain(Rect::box2(16, 16)));
  a.members.push_back(grid);
  const PartitionId blocks = partition_equal(forest, grid, Rect::box2(4, 4));
  a.add(forest, blocks);
  a.add(forest, partition_halo(forest, grid, blocks, 1));
  a.add(forest, partition_image(forest, grid, blocks, [](const Point& p) {
    return Point::p2((p[0] * 7 + p[1]) % 16, (p[1] * 3) % 16);
  }));
  const IndexSpaceId block11 = forest.subspace(blocks, Point::p2(1, 1));
  a.add(forest, partition_equal(forest, block11, Rect::box2(2, 2)));
  a.add(forest, forest.create_partition(
                    grid, Rect::line(2),
                    {Domain(Rect(Point::p2(3, 3), Point::p2(9, 4))), Domain::from_points({})},
                    Disjointness::kCompute));

  // Tree B: a second root, 1-D, whose multi-coloring leaves color 3 empty.
  TreeMembers b;
  const IndexSpaceId line = forest.create_index_space(Domain::line(64));
  b.members.push_back(line);
  b.add(forest, partition_equal(forest, line, Rect::line(8)));
  b.add(forest, partition_by_multi_coloring(
                    forest, line, Rect::line(4), [](const Point& p, std::vector<Point>& out) {
                      if (p[0] % 5 == 0) out.push_back(Point::p1(0));
                      if (p[0] % 3 == 0) out.push_back(Point::p1(1));
                      if (p[0] > 40) out.push_back(Point::p1(2));
                    }));

  expect_index_matches_brute_force(forest, a);
  expect_index_matches_brute_force(forest, b);
  // A color with an empty domain overlaps nothing, not even itself.
  const IndexSpaceId empty = a.members.back();
  ASSERT_TRUE(forest.domain(empty).empty());
  EXPECT_TRUE(forest.overlapping(empty).empty());
  // The root's list holds every nonempty member of its own tree, no other.
  EXPECT_EQ(forest.overlapping(line).size(), b.members.size() - 1);
}

TEST(OverlapIndexTest, PartitionAfterQueryJoinsTheLists) {
  RegionForest forest;
  TreeMembers a;
  const IndexSpaceId grid = forest.create_index_space(Domain(Rect::box2(8, 8)));
  a.members.push_back(grid);
  const PartitionId blocks = partition_equal(forest, grid, Rect::box2(2, 2));
  a.add(forest, blocks);
  TreeMembers b;
  const IndexSpaceId other = forest.create_index_space(Domain(Rect::box2(8, 8)));
  b.members.push_back(other);
  b.add(forest, partition_equal(forest, other, Rect::box2(2, 2)));
  expect_index_matches_brute_force(forest, a);
  expect_index_matches_brute_force(forest, b);
  const std::vector<uint32_t> other_before = ids_of(forest.overlapping(other));

  // New subspaces join every list they overlap, in their own tree only.
  const PartitionId halo = partition_halo(forest, grid, blocks, 1);
  a.add(forest, halo);
  const IndexSpaceId block00 = forest.subspace(blocks, Point::p2(0, 0));
  const std::vector<uint32_t> got = ids_of(forest.overlapping(block00));
  EXPECT_NE(std::find(got.begin(), got.end(), forest.subspace(halo, Point::p2(1, 1)).id),
            got.end());
  expect_index_matches_brute_force(forest, a);
  EXPECT_EQ(ids_of(forest.overlapping(other)), other_before);
  expect_index_matches_brute_force(forest, b);

  // And again, one level down.
  a.add(forest, partition_equal(forest, block00, Rect::box2(2, 2)));
  expect_index_matches_brute_force(forest, a);
}

TEST(DependentPartitioningTest, PreimagePartitionsEdgesByNodeOwner) {
  // 12 "edges" each pointing at a node; nodes partitioned into 3 blocks of
  // 4; preimage groups edges by the block their target lives in.
  RegionForest forest;
  const IndexSpaceId nodes = forest.create_index_space(Domain::line(12));
  const IndexSpaceId edges = forest.create_index_space(Domain::line(12));
  const PartitionId node_blocks = partition_equal(forest, nodes, Rect::line(3));
  const PartitionId by_target = partition_preimage(
      forest, edges, node_blocks,
      [](const Point& e) { return Point::p1((e[0] * 5) % 12); });
  EXPECT_TRUE(forest.is_disjoint(by_target));
  // Every edge lands in exactly one bucket.
  int64_t total = 0;
  for (const Point& c : forest.color_space(by_target))
    total += forest.domain(forest.subspace(by_target, c)).volume();
  EXPECT_EQ(total, 12);
  // Edge 1 points at node 5 -> block 1.
  EXPECT_TRUE(forest.domain(forest.subspace(by_target, Point::p1(1)))
                  .contains(Point::p1(1)));
}

TEST(DependentPartitioningTest, ImageComputesTouchedNodes) {
  RegionForest forest;
  const IndexSpaceId nodes = forest.create_index_space(Domain::line(12));
  const IndexSpaceId edges = forest.create_index_space(Domain::line(6));
  const PartitionId edge_blocks = partition_equal(forest, edges, Rect::line(2));
  // Edge e touches nodes 2e and 2e+1; block 0 holds edges {0,1,2}.
  const PartitionId touched = partition_image_multi(
      forest, nodes, edge_blocks, [](const Point& e, std::vector<Point>& out) {
        out.push_back(Point::p1(2 * e[0]));
        out.push_back(Point::p1(2 * e[0] + 1));
      });
  const Domain& t0 = forest.domain(forest.subspace(touched, Point::p1(0)));
  EXPECT_EQ(t0.volume(), 6);
  EXPECT_TRUE(t0.contains(Point::p1(5)));
  EXPECT_FALSE(t0.contains(Point::p1(6)));
  EXPECT_TRUE(forest.is_disjoint(touched));  // this image happens to be disjoint
}

TEST(DependentPartitioningTest, OverlappingImageIsAliased) {
  RegionForest forest;
  const IndexSpaceId range = forest.create_index_space(Domain::line(4));
  const IndexSpaceId domain = forest.create_index_space(Domain::line(8));
  const PartitionId blocks = partition_equal(forest, domain, Rect::line(2));
  // Every domain point maps to node 0: images overlap across colors.
  const PartitionId img = partition_image(forest, range, blocks,
                                          [](const Point&) { return Point::p1(0); });
  EXPECT_FALSE(forest.is_disjoint(img));
}

TEST(DependentPartitioningTest, ImageRejectsOutOfRangePoints) {
  RegionForest forest;
  const IndexSpaceId range = forest.create_index_space(Domain::line(4));
  const IndexSpaceId domain = forest.create_index_space(Domain::line(8));
  const PartitionId blocks = partition_equal(forest, domain, Rect::line(2));
  EXPECT_THROW(partition_image(forest, range, blocks,
                               [](const Point& p) { return Point::p1(p[0] + 100); }),
               RuntimeError);
}

TEST(DependentPartitioningTest, PreimageRoundTripsImage) {
  // Property: for a function f and disjoint range partition P,
  // subspace(preimage(f, P), c) maps under f into subspace(P, c).
  RegionForest forest;
  Rng rng(17);
  const IndexSpaceId range = forest.create_index_space(Domain::line(20));
  const IndexSpaceId domain = forest.create_index_space(Domain::line(40));
  const PartitionId range_blocks = partition_equal(forest, range, Rect::line(5));
  std::vector<int64_t> targets;
  for (int i = 0; i < 40; ++i) targets.push_back(rng.next_in(0, 19));
  const PartitionId pre = partition_preimage(
      forest, domain, range_blocks,
      [&targets](const Point& p) {
        return Point::p1(targets[static_cast<std::size_t>(p[0])]);
      });
  for (const Point& c : forest.color_space(pre)) {
    const Domain& bucket = forest.domain(forest.subspace(pre, c));
    const Domain& target = forest.domain(forest.subspace(range_blocks, c));
    bucket.for_each([&](const Point& x) {
      EXPECT_TRUE(target.contains(
          Point::p1(targets[static_cast<std::size_t>(x[0])])));
    });
  }
}

// Property: partition_equal tiles the parent exactly, for many shapes.
class EqualPartitionProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(EqualPartitionProperty, TilesExactly) {
  const auto [n, pieces] = GetParam();
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(n));
  const PartitionId p = partition_equal(forest, is, Rect::line(pieces));
  EXPECT_TRUE(forest.verify_disjoint(p));
  int64_t total = 0;
  int64_t max_sz = 0, min_sz = n;
  for (const Point& c : forest.color_space(p)) {
    const int64_t v = forest.domain(forest.subspace(p, c)).volume();
    total += v;
    max_sz = std::max(max_sz, v);
    min_sz = std::min(min_sz, v);
  }
  EXPECT_EQ(total, n);
  EXPECT_LE(max_sz - min_sz, 1);  // balanced
}

INSTANTIATE_TEST_SUITE_P(Shapes, EqualPartitionProperty,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(7, 3),
                                           std::make_tuple(16, 16),
                                           std::make_tuple(100, 7),
                                           std::make_tuple(1024, 32),
                                           std::make_tuple(5, 5)));

// Property: halo partitions always contain their block.
class HaloContainsBlockProperty
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(HaloContainsBlockProperty, HaloContainsBlock) {
  const auto [n, pieces, radius] = GetParam();
  RegionForest forest;
  const IndexSpaceId is = forest.create_index_space(Domain::line(n));
  const PartitionId blocks = partition_equal(forest, is, Rect::line(pieces));
  const PartitionId halos = partition_halo(forest, is, blocks, radius);
  for (const Point& c : forest.color_space(blocks)) {
    const Domain& block = forest.domain(forest.subspace(blocks, c));
    const Domain& halo = forest.domain(forest.subspace(halos, c));
    EXPECT_TRUE(halo.contains_domain(block));
    EXPECT_LE(halo.volume(), block.volume() + 2 * radius);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, HaloContainsBlockProperty,
                         ::testing::Values(std::make_tuple(12, 4, 1),
                                           std::make_tuple(100, 10, 2),
                                           std::make_tuple(64, 8, 3),
                                           std::make_tuple(9, 3, 0)));

}  // namespace
}  // namespace idxl
