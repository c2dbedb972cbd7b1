#pragma once

#include <vector>

#include "region/offset_index.hpp"
#include "region/point.hpp"

namespace idxl {

/// A set of points: either a dense rectangle or an explicit (sparse) point
/// list with a bounding rectangle. Launch domains, index spaces and
/// partition color spaces are all Domains.
///
/// The sparse form is what makes the DOM radiation sweeps expressible: each
/// sweep stage launches over a *diagonal slice* of a 3-D grid, which is not
/// a rectangle.
///
/// A *run* is a maximal stretch of the domain's points that are consecutive
/// along the last dimension: lo, lo + e, ..., lo + (n-1)e, with e the unit
/// vector of the last axis. Storage is row-major, so a run is contiguous in
/// memory; task bodies and the data plane check and move one run at a time.
///
/// A sparse domain answers membership, rank and run queries with one lookup
/// in its OffsetIndex, keyed by a point's row-major offset inside the
/// bounding box; a dense one by arithmetic on its bounds.
class Domain {
 public:
  Domain() = default;

  /// Dense domain covering `bounds`.
  explicit Domain(const Rect& bounds) : bounds_(bounds) {}

  /// Sparse domain from an explicit point list (deduplicated, canonical
  /// order). All points must share one dimensionality, and the volume of
  /// their bounding box must fit in int64_t (both throw otherwise).
  static Domain from_points(std::vector<Point> pts);

  /// Convenience: dense 1-D domain [0, n).
  static Domain line(int64_t n) { return Domain(Rect::line(n)); }

  int dim() const { return bounds_.dim(); }
  bool dense() const { return !sparse_; }
  const Rect& bounds() const { return bounds_; }

  int64_t volume() const {
    return dense() ? bounds_.volume() : static_cast<int64_t>(points_.size());
  }
  bool empty() const { return volume() == 0; }

  /// Inline: every element access makes this test. A bounds test, then for
  /// a sparse domain one index lookup.
  bool contains(const Point& p) const {
    if (!sparse_) return bounds_.contains(p);
    const int64_t offset = box_offset(p);
    return offset >= 0 && index_.find(offset) >= 0;
  }

  /// True iff all `n` points of the run starting at `lo` are in the domain
  /// (vacuously for n == 0, never for n < 0). Exact for both forms: a dense
  /// domain holds a run iff it holds both ends; a sparse one iff its sorted,
  /// unique list has `lo` (one lookup) and, n - 1 entries later, the run's
  /// last point.
  bool contains_run(const Point& lo, int64_t n) const;

  /// True iff no point is shared with `other`.
  bool disjoint_from(const Domain& other) const;

  /// True iff every point of `other` is contained in this domain.
  bool contains_domain(const Domain& other) const;

  Domain intersection(const Domain& other) const;

  /// Materialize the point list (row-major for dense domains).
  std::vector<Point> points() const;

  /// Rank of `p` in the row-major enumeration of this domain (0-based).
  /// O(1) for both forms: arithmetic when dense, one lookup when sparse.
  int64_t linear_index(const Point& p) const;

  /// Call `fn(p)` for each point, avoiding materialization for dense
  /// domains. Fn: void(const Point&).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (dense()) {
      for (const Point& p : bounds_) fn(p);
    } else {
      for (const Point& p : points_) fn(p);
    }
  }

  /// Call `fn(lo, n)` for each run, in for_each order: concatenating the
  /// runs gives exactly for_each's sequence. A dense domain has one run per
  /// row (a 1-D one is a single run); a sparse one splits its point list
  /// wherever the last coordinate skips or a leading coordinate changes.
  /// Fn: void(const Point& lo, int64_t n).
  template <typename Fn>
  void for_each_run(Fn&& fn) const {
    if (empty()) return;
    const int last = dim() - 1;
    if (dense()) {
      const int64_t n = bounds_.hi[last] - bounds_.lo[last] + 1;
      Rect rows = bounds_;
      rows.hi[last] = rows.lo[last];
      for (const Point& lo : rows) fn(lo, n);
      return;
    }
    std::size_t start = 0;
    for (std::size_t i = 1; i <= points_.size(); ++i) {
      if (i < points_.size() && extends_run(points_[i - 1], points_[i])) continue;
      fn(points_[start], static_cast<int64_t>(i - start));
      start = i;
    }
  }

  friend bool operator==(const Domain& a, const Domain& b);

  std::string to_string() const;

  /// The sparse form's lookup table (empty for a dense domain).
  const OffsetIndex& index() const { return index_; }

 private:
  /// Row-major offset of `p` inside bounds_ (the index's key), or -1 when
  /// `p` lies outside the box: the bounds test and the offset in one pass.
  /// Unsigned, so a point far outside cannot overflow; it wraps to an axis
  /// position past the extent. from_points checked that the box's volume
  /// fits in int64_t, so every offset does.
  int64_t box_offset(const Point& p) const {
    if (p.dim != bounds_.dim()) return -1;
    uint64_t offset = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(p.dim); ++i) {
      const uint64_t lo = static_cast<uint64_t>(bounds_.lo.c[i]);
      const uint64_t at = static_cast<uint64_t>(p.c[i]) - lo;
      const uint64_t extent = static_cast<uint64_t>(bounds_.hi.c[i]) - lo + 1;
      if (at >= extent) return -1;
      offset = offset * extent + at;
    }
    return static_cast<int64_t>(offset);
  }

  /// True iff `b` follows `a` in one run: same leading coordinates, last
  /// coordinate one higher.
  static bool extends_run(const Point& a, const Point& b) {
    const std::size_t last = static_cast<std::size_t>(a.dim - 1);
    for (std::size_t i = 0; i < last; ++i)
      if (a.c[i] != b.c[i]) return false;
    return b.c[last] == a.c[last] + 1;
  }

  Rect bounds_;                 // tight bounding box
  std::vector<Point> points_;  // sorted & unique when sparse, else empty
  OffsetIndex index_;          // sparse: box_offset(points_[r]) -> r
  bool sparse_ = false;
};

}  // namespace idxl
