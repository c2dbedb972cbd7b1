#include "region/domain.hpp"

#include <algorithm>

namespace idxl {

Domain Domain::from_points(std::vector<Point> pts) {
  Domain d;
  if (pts.empty()) {
    d.bounds_ = Rect();  // canonical empty
    d.sparse_ = true;
    return d;
  }
  const int dim = pts.front().dim;
  for (const Point& p : pts) IDXL_REQUIRE(p.dim == dim, "mixed-dim point list");
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());

  Rect bounds(pts.front(), pts.front());
  for (const Point& p : pts)
    for (int i = 0; i < dim; ++i) {
      bounds.lo[i] = std::min(bounds.lo[i], p[i]);
      bounds.hi[i] = std::max(bounds.hi[i], p[i]);
    }
  const std::optional<int64_t> volume = bounds.checked_volume();
  IDXL_REQUIRE(volume.has_value(), "point list's bounding box " + bounds.to_string() +
                                       " holds more than INT64_MAX points");
  // A sparse list that fills its bounding box exactly is really dense;
  // normalize so dense() reflects structure, not construction history.
  if (static_cast<int64_t>(pts.size()) == *volume) return Domain(bounds);
  d.bounds_ = bounds;
  d.points_ = std::move(pts);
  d.sparse_ = true;
  // Sorted points have increasing offsets, so rank r is offsets[r].
  std::vector<int64_t> offsets;
  offsets.reserve(d.points_.size());
  for (const Point& p : d.points_) offsets.push_back(d.box_offset(p));
  d.index_ = OffsetIndex(offsets);
  return d;
}

bool Domain::contains_run(const Point& lo, int64_t n) const {
  if (n == 0) return true;
  if (n < 0 || n > volume() || !bounds_.contains(lo)) return false;
  const int last = dim() - 1;
  if (n - 1 > bounds_.hi[last] - lo[last]) return false;  // leaves the box
  if (dense()) return true;
  const int64_t r = index_.find(box_offset(lo));
  if (r < 0 || static_cast<int64_t>(points_.size()) - r < n) return false;
  Point end = lo;
  end[last] += n - 1;
  return points_[static_cast<std::size_t>(r + n - 1)] == end;
}

bool Domain::disjoint_from(const Domain& other) const {
  if (empty() || other.empty()) return true;
  if (dim() != other.dim()) return true;
  if (!bounds_.overlaps(other.bounds_)) return true;
  if (dense() && other.dense()) return false;  // bounding boxes overlap
  // Iterate the smaller side, membership-test against the larger.
  const Domain& small = volume() <= other.volume() ? *this : other;
  const Domain& large = volume() <= other.volume() ? other : *this;
  bool disjoint = true;
  small.for_each([&](const Point& p) {
    if (disjoint && large.contains(p)) disjoint = false;
  });
  return disjoint;
}

bool Domain::contains_domain(const Domain& other) const {
  if (other.empty()) return true;
  if (dim() != other.dim()) return false;
  if (dense() && other.dense()) return bounds_.contains(other.bounds_);
  bool ok = true;
  other.for_each([&](const Point& p) {
    if (ok && !contains(p)) ok = false;
  });
  return ok;
}

Domain Domain::intersection(const Domain& other) const {
  IDXL_ASSERT(dim() == other.dim());
  if (dense() && other.dense()) return Domain(bounds_.intersection(other.bounds_));
  std::vector<Point> pts;
  const Domain& small = volume() <= other.volume() ? *this : other;
  const Domain& large = volume() <= other.volume() ? other : *this;
  small.for_each([&](const Point& p) {
    if (large.contains(p)) pts.push_back(p);
  });
  return from_points(std::move(pts));
}

int64_t Domain::linear_index(const Point& p) const {
  const int64_t r = dense() ? (bounds_.contains(p) ? bounds_.linearize(p) : -1)
                            : index_.find(box_offset(p));
  IDXL_ASSERT_MSG(r >= 0, "linear_index of a point outside the domain");
  return r;
}

std::vector<Point> Domain::points() const {
  if (!dense()) return points_;
  std::vector<Point> pts;
  pts.reserve(static_cast<std::size_t>(bounds_.volume()));
  for (const Point& p : bounds_) pts.push_back(p);
  return pts;
}

bool operator==(const Domain& a, const Domain& b) {
  if (a.empty() && b.empty()) return a.dim() == b.dim();
  if (a.dense() != b.dense()) return false;
  if (a.dense()) return a.bounds_ == b.bounds_;
  return a.points_ == b.points_;
}

std::string Domain::to_string() const {
  if (dense()) return bounds_.to_string();
  return "sparse[" + std::to_string(volume()) + " pts in " + bounds_.to_string() + "]";
}

}  // namespace idxl
