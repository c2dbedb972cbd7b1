#pragma once

#include <array>
#include <span>
#include <type_traits>

#include "region/region_forest.hpp"

namespace idxl {

/// Privileges a task declares on a region argument (§2). Declared up front
/// so the dependence analysis can run *before* the task executes, and so
/// index-launch safety can be decided from the launch descriptor alone.
enum class Privilege : uint8_t {
  kRead,
  kWrite,      // write-only (write-discard)
  kReadWrite,
  kReduce,     // reduction with a commutative operator
};

inline bool privilege_writes(Privilege p) {
  return p == Privilege::kWrite || p == Privilege::kReadWrite ||
         p == Privilege::kReduce;
}
inline bool privilege_reads(Privilege p) {
  return p == Privilege::kRead || p == Privilege::kReadWrite;
}

inline const char* privilege_name(Privilege p) {
  switch (p) {
    case Privilege::kRead: return "read";
    case Privilege::kWrite: return "write";
    case Privilege::kReadWrite: return "read-write";
    case Privilege::kReduce: return "reduce";
  }
  return "?";
}

/// Built-in commutative reduction operators.
enum class ReductionOp : uint8_t { kNone, kSum, kProd, kMin, kMax };

template <typename T>
T apply_reduction(ReductionOp op, T lhs, T rhs) {
  switch (op) {
    case ReductionOp::kSum: return lhs + rhs;
    case ReductionOp::kProd: return lhs * rhs;
    case ReductionOp::kMin: return rhs < lhs ? rhs : lhs;
    case ReductionOp::kMax: return lhs < rhs ? rhs : lhs;
    case ReductionOp::kNone: break;
  }
  IDXL_ASSERT_MSG(false, "apply_reduction with kNone");
  return lhs;
}

/// Typed view of one field of a region. The accessor addresses the root's
/// storage (so sibling subregions alias the same memory, as in Legion) but
/// checks every access against the *subregion's* domain and the declared
/// privilege, always, in every build: a stray access aborts with a "bounds"
/// or "privilege" message (how privilege violations surface in tests).
///
/// Element access (read/write/reduce/ref) makes one privilege test and one
/// Domain::contains per call. Run access (read_run/write_run) makes one of
/// each per run of the domain (Domain::for_each_run) and returns a
/// std::span over it, so a kernel indexes the run at memory speed; builds
/// with _GLIBCXX_ASSERTIONS still check each span index. Reductions stay
/// per element.
template <typename T>
class Accessor {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  Accessor(RegionForest& forest, RegionId r, FieldId f, Privilege priv,
           ReductionOp redop = ReductionOp::kNone)
      : Accessor(forest.field_data(r, f), forest.field(forest.region(r).fspace, f).size,
                 forest.storage_bounds(r), &forest.region_domain(r), priv, redop) {}

  /// Construct from pre-resolved storage (used by PhysicalRegion, which
  /// captures pointers at issue time so task bodies never touch the forest
  /// concurrently with issuance). `field_size` is checked against T here.
  Accessor(std::byte* data, std::size_t field_size, const Rect& storage_bounds,
           const Domain* domain, Privilege priv, ReductionOp redop)
      : data_(reinterpret_cast<T*>(data)), domain_(domain), priv_(priv), redop_(redop) {
    IDXL_REQUIRE(field_size == sizeof(T),
                 "accessor element type does not match field size");
    IDXL_REQUIRE((priv == Privilege::kReduce) == (redop != ReductionOp::kNone),
                 "reduction op must be given iff privilege is reduce");
    // Checked once here, so an access needs only the domain test.
    IDXL_ASSERT_MSG(storage_bounds.contains(domain->bounds()),
                    "region view escapes its storage bounds");
    const std::size_t dim = static_cast<std::size_t>(storage_bounds.dim());
    int64_t stride = 1;
    for (std::size_t i = dim; i-- > 0;) {
      lo_[i] = storage_bounds.lo.c[i];
      stride_[i] = stride;
      stride *= storage_bounds.hi.c[i] - storage_bounds.lo.c[i] + 1;
    }
  }

  const T& read(const Point& p) const {
    IDXL_ASSERT_MSG(privilege_reads(priv_), "read access without read privilege");
    return data_[slot(p)];
  }

  void write(const Point& p, const T& v) {
    IDXL_ASSERT_MSG(priv_ == Privilege::kWrite || priv_ == Privilege::kReadWrite,
                    "write access without write privilege");
    data_[slot(p)] = v;
  }

  void reduce(const Point& p, const T& v) {
    IDXL_ASSERT_MSG(priv_ == Privilege::kReduce, "reduce access without reduce privilege");
    T& elem = data_[slot(p)];
    elem = apply_reduction(redop_, elem, v);
  }

  /// Read-write shorthand for kReadWrite accessors.
  T& ref(const Point& p) {
    IDXL_ASSERT_MSG(priv_ == Privilege::kReadWrite, "ref requires read-write privilege");
    return data_[slot(p)];
  }

  /// The `n` elements at lo, lo + e, ..., lo + (n-1)e, e the last axis: one
  /// privilege test and one Domain::contains_run for the whole run.
  std::span<const T> read_run(const Point& lo, int64_t n) const {
    IDXL_ASSERT_MSG(privilege_reads(priv_), "read access without read privilege");
    return {run(lo, n), static_cast<std::size_t>(n)};
  }

  /// Writable span over a run; needs write or read-write privilege. Under
  /// kWrite (write-discard) the elements' prior values are unspecified.
  std::span<T> write_run(const Point& lo, int64_t n) {
    IDXL_ASSERT_MSG(priv_ == Privilege::kWrite || priv_ == Privilege::kReadWrite,
                    "write access without write privilege");
    return {run(lo, n), static_cast<std::size_t>(n)};
  }

  const Domain& domain() const { return *domain_; }

 private:
  std::size_t slot(const Point& p) const {
    IDXL_ASSERT_MSG(domain_->contains(p), "region access out of privilege bounds");
    return offset(p);
  }

  T* run(const Point& lo, int64_t n) const {
    IDXL_ASSERT_MSG(domain_->contains_run(lo, n), "region access out of privilege bounds");
    return n == 0 ? nullptr : data_ + offset(lo);
  }

  /// Row-major offset of a point of the domain in the root's storage. Axes
  /// past the storage's dimension have stride 0.
  std::size_t offset(const Point& p) const {
    int64_t idx = 0;
    for (std::size_t i = 0; i < lo_.size(); ++i) idx += (p.c[i] - lo_[i]) * stride_[i];
    return static_cast<std::size_t>(idx);
  }

  T* data_;
  const Domain* domain_;
  std::array<int64_t, kMaxDim> lo_{};
  std::array<int64_t, kMaxDim> stride_{};
  Privilege priv_;
  ReductionOp redop_;
};

}  // namespace idxl
