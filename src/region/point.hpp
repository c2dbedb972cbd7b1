#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <ostream>
#include <string>

#include "support/error.hpp"

namespace idxl {

/// Maximum dimensionality of index spaces and launch domains. The paper's
/// workloads need up to 3 (DOM sweeps launch over 3-D diagonal slices); 4
/// leaves headroom for e.g. ensemble dimensions.
inline constexpr int kMaxDim = 4;

/// A point in an N-dimensional integer index space. Dimensionality is
/// dynamic (1..kMaxDim) because launch domains and partition color spaces of
/// different arity flow through the same runtime code paths.
struct Point {
  int dim = 1;
  std::array<int64_t, kMaxDim> c{};  // coordinates; entries >= dim are 0

  Point() = default;
  Point(int d, std::array<int64_t, kMaxDim> coords) : dim(d), c(coords) {
    IDXL_ASSERT(d >= 1 && d <= kMaxDim);
  }

  static Point p1(int64_t x) { return Point(1, {x, 0, 0, 0}); }
  static Point p2(int64_t x, int64_t y) { return Point(2, {x, y, 0, 0}); }
  static Point p3(int64_t x, int64_t y, int64_t z) { return Point(3, {x, y, z, 0}); }
  static Point p4(int64_t x, int64_t y, int64_t z, int64_t w) {
    return Point(4, {x, y, z, w});
  }

  /// All-`v` point of dimension `d`.
  static Point filled(int d, int64_t v) {
    Point p;
    p.dim = d;
    for (int i = 0; i < d; ++i) p.c[i] = v;
    return p;
  }

  int64_t operator[](int i) const {
    IDXL_ASSERT(i >= 0 && i < dim);
    return c[static_cast<std::size_t>(i)];
  }
  int64_t& operator[](int i) {
    IDXL_ASSERT(i >= 0 && i < dim);
    return c[static_cast<std::size_t>(i)];
  }

  friend bool operator==(const Point& a, const Point& b) {
    if (a.dim != b.dim) return false;
    for (int i = 0; i < a.dim; ++i)
      if (a.c[static_cast<std::size_t>(i)] != b.c[static_cast<std::size_t>(i)]) return false;
    return true;
  }
  friend bool operator!=(const Point& a, const Point& b) { return !(a == b); }

  /// Lexicographic order (points of smaller dim sort first). Used by sparse
  /// domains to keep point lists canonical.
  friend bool operator<(const Point& a, const Point& b) {
    if (a.dim != b.dim) return a.dim < b.dim;
    for (int i = 0; i < a.dim; ++i) {
      const auto ai = a.c[static_cast<std::size_t>(i)];
      const auto bi = b.c[static_cast<std::size_t>(i)];
      if (ai != bi) return ai < bi;
    }
    return false;
  }

  friend Point operator+(const Point& a, const Point& b) {
    IDXL_ASSERT(a.dim == b.dim);
    Point r = a;
    for (int i = 0; i < a.dim; ++i) r.c[static_cast<std::size_t>(i)] += b.c[static_cast<std::size_t>(i)];
    return r;
  }
  friend Point operator-(const Point& a, const Point& b) {
    IDXL_ASSERT(a.dim == b.dim);
    Point r = a;
    for (int i = 0; i < a.dim; ++i) r.c[static_cast<std::size_t>(i)] -= b.c[static_cast<std::size_t>(i)];
    return r;
  }

  std::string to_string() const {
    std::string s = "(";
    for (int i = 0; i < dim; ++i) {
      if (i) s += ",";
      s += std::to_string(c[static_cast<std::size_t>(i)]);
    }
    return s + ")";
  }

  friend std::ostream& operator<<(std::ostream& os, const Point& p) {
    return os << p.to_string();
  }
};

struct PointHash {
  std::size_t operator()(const Point& p) const {
    // FNV-1a over dim + active coordinates.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(static_cast<uint64_t>(p.dim));
    for (int i = 0; i < p.dim; ++i) mix(static_cast<uint64_t>(p.c[static_cast<std::size_t>(i)]));
    return static_cast<std::size_t>(h);
  }
};

/// A dense axis-aligned rectangle [lo, hi], inclusive on both ends (the
/// Legion/Realm convention). An empty rect has hi[i] < lo[i] in some
/// dimension.
struct Rect {
  Point lo, hi;

  Rect() : lo(Point::p1(0)), hi(Point::p1(-1)) {}
  Rect(Point l, Point h) : lo(l), hi(h) { IDXL_ASSERT(l.dim == h.dim); }

  /// 1-D rect covering [0, n).
  static Rect line(int64_t n) { return Rect(Point::p1(0), Point::p1(n - 1)); }
  static Rect box2(int64_t nx, int64_t ny) {
    return Rect(Point::p2(0, 0), Point::p2(nx - 1, ny - 1));
  }
  static Rect box3(int64_t nx, int64_t ny, int64_t nz) {
    return Rect(Point::p3(0, 0, 0), Point::p3(nx - 1, ny - 1, nz - 1));
  }

  int dim() const { return lo.dim; }

  bool empty() const {
    for (int i = 0; i < dim(); ++i)
      if (hi[i] < lo[i]) return true;
    return false;
  }

  int64_t volume() const {
    if (empty()) return 0;
    int64_t v = 1;
    for (int i = 0; i < dim(); ++i) v *= hi[i] - lo[i] + 1;
    return v;
  }

  /// volume(), or nullopt when it does not fit in int64_t (a box spanning
  /// most of the coordinate range, which a wire frame can name). When it
  /// fits, so does every extent and every linearize() result.
  std::optional<int64_t> checked_volume() const {
    if (empty()) return 0;
    int64_t v = 1;
    for (int i = 0; i < dim(); ++i) {
      // hi - lo + 1 in unsigned arithmetic, exact for any hi >= lo.
      const uint64_t extent =
          static_cast<uint64_t>(hi[i]) - static_cast<uint64_t>(lo[i]) + 1;
      if (extent == 0 || extent > static_cast<uint64_t>(INT64_MAX) ||
          __builtin_mul_overflow(v, static_cast<int64_t>(extent), &v))
        return std::nullopt;
    }
    return v;
  }

  bool contains(const Point& p) const {
    if (p.dim != dim()) return false;
    for (std::size_t i = 0; i < static_cast<std::size_t>(dim()); ++i)
      if (p.c[i] < lo.c[i] || p.c[i] > hi.c[i]) return false;
    return true;
  }

  bool contains(const Rect& r) const {
    if (r.empty()) return true;
    return contains(r.lo) && contains(r.hi);
  }

  Rect intersection(const Rect& other) const {
    IDXL_ASSERT(dim() == other.dim());
    Rect r = *this;
    for (int i = 0; i < dim(); ++i) {
      r.lo[i] = std::max(lo[i], other.lo[i]);
      r.hi[i] = std::min(hi[i], other.hi[i]);
    }
    return r;
  }

  bool overlaps(const Rect& other) const { return !intersection(other).empty(); }

  /// Row-major linearization of `p` within this rect; the bijection used to
  /// index physical storage and the dynamic checker's bitmask.
  int64_t linearize(const Point& p) const {
    IDXL_ASSERT(contains(p));
    int64_t idx = 0;
    for (int i = 0; i < dim(); ++i) idx = idx * (hi[i] - lo[i] + 1) + (p[i] - lo[i]);
    return idx;
  }

  /// Inverse of linearize().
  Point delinearize(int64_t idx) const {
    IDXL_ASSERT(idx >= 0 && idx < volume());
    Point p = lo;
    for (int i = dim() - 1; i >= 0; --i) {
      const int64_t extent = hi[i] - lo[i] + 1;
      p[i] = lo[i] + idx % extent;
      idx /= extent;
    }
    return p;
  }

  friend bool operator==(const Rect& a, const Rect& b) {
    if (a.empty() && b.empty() && a.dim() == b.dim()) return true;
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const Rect& a, const Rect& b) { return !(a == b); }

  std::string to_string() const { return lo.to_string() + ".." + hi.to_string(); }

  friend std::ostream& operator<<(std::ostream& os, const Rect& r) {
    return os << r.to_string();
  }

  /// Forward iterator over points in row-major order.
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Point;
    using difference_type = std::ptrdiff_t;
    using pointer = const Point*;
    using reference = const Point&;

    iterator() = default;
    iterator(const Rect* rect, Point p, bool end) : rect_(rect), p_(p), end_(end) {}

    const Point& operator*() const { return p_; }
    const Point* operator->() const { return &p_; }

    iterator& operator++() {
      for (int i = rect_->dim() - 1; i >= 0; --i) {
        if (++p_[i] <= rect_->hi[i]) return *this;
        p_[i] = rect_->lo[i];
      }
      end_ = true;
      return *this;
    }

    friend bool operator==(const iterator& a, const iterator& b) {
      return a.end_ == b.end_ && (a.end_ || a.p_ == b.p_);
    }
    friend bool operator!=(const iterator& a, const iterator& b) { return !(a == b); }

   private:
    const Rect* rect_ = nullptr;
    Point p_;
    bool end_ = true;
  };

  iterator begin() const {
    return iterator(this, lo, empty());
  }
  iterator end() const { return iterator(this, lo, true); }
};

struct RectHash {
  std::size_t operator()(const Rect& r) const {
    PointHash ph;
    return ph(r.lo) * 0x9E3779B97F4A7C15ull + ph(r.hi);
  }
};

}  // namespace idxl
