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
  for (const Point& p : pts) IDXL_ASSERT_MSG(p.dim == dim, "mixed-dim point list");
  std::sort(pts.begin(), pts.end());
  pts.erase(std::unique(pts.begin(), pts.end()), pts.end());

  Rect bounds(pts.front(), pts.front());
  for (const Point& p : pts)
    for (int i = 0; i < dim; ++i) {
      bounds.lo[i] = std::min(bounds.lo[i], p[i]);
      bounds.hi[i] = std::max(bounds.hi[i], p[i]);
    }
  d.bounds_ = bounds;
  // A sparse list that fills its bounding box exactly is really dense;
  // normalize so dense() reflects structure, not construction history.
  if (static_cast<int64_t>(pts.size()) == bounds.volume()) {
    return Domain(bounds);
  }
  d.points_ = std::move(pts);
  d.sparse_ = true;
  return d;
}

bool Domain::sparse_contains(const Point& p) const {
  if (!bounds_.contains(p)) return false;
  return std::binary_search(points_.begin(), points_.end(), p);
}

bool Domain::contains_run(const Point& lo, int64_t n) const {
  if (n == 0) return true;
  if (n < 0 || n > volume() || !bounds_.contains(lo)) return false;
  Point end = lo;
  end[dim() - 1] += n - 1;
  if (dense()) return bounds_.contains(end);
  const auto it = std::lower_bound(points_.begin(), points_.end(), lo);
  if (it == points_.end() || *it != lo || points_.end() - it < n) return false;
  return *(it + (n - 1)) == end;
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
  IDXL_ASSERT_MSG(contains(p), "linear_index of a point outside the domain");
  if (dense()) return bounds_.linearize(p);
  const auto it = std::lower_bound(points_.begin(), points_.end(), p);
  return static_cast<int64_t>(it - points_.begin());
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
