#pragma once

#include <vector>

#include "region/point.hpp"

namespace idxl {

/// A set of points: either a dense rectangle or an explicit (sparse) point
/// list with a bounding rectangle. Launch domains, index spaces and
/// partition color spaces are all Domains.
///
/// The sparse form is what makes the DOM radiation sweeps expressible: each
/// sweep stage launches over a *diagonal slice* of a 3-D grid, which is not
/// a rectangle.
class Domain {
 public:
  Domain() = default;

  /// Dense domain covering `bounds`.
  explicit Domain(const Rect& bounds) : bounds_(bounds) {}

  /// Sparse domain from an explicit point list (deduplicated, canonical
  /// order). All points must share one dimensionality.
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

  bool contains(const Point& p) const;

  /// True iff no point is shared with `other`.
  bool disjoint_from(const Domain& other) const;

  /// True iff every point of `other` is contained in this domain.
  bool contains_domain(const Domain& other) const;

  Domain intersection(const Domain& other) const;

  /// Materialize the point list (row-major for dense domains).
  std::vector<Point> points() const;

  /// Rank of `p` in the row-major enumeration of this domain (0-based).
  /// O(1) for dense domains, O(log n) for sparse ones.
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

  friend bool operator==(const Domain& a, const Domain& b);

  std::string to_string() const;

 private:
  Rect bounds_;                 // tight bounding box
  std::vector<Point> points_;  // sorted & unique when sparse, else empty
  bool sparse_ = false;
};

}  // namespace idxl
