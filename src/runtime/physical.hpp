#pragma once

#include <algorithm>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "region/accessor.hpp"
#include "runtime/fault.hpp"
#include "runtime/types.hpp"

namespace idxl {

/// A task's mapped view of one region argument. All forest lookups happen
/// here, at issue time ("mapping"); by execution the view is self-contained
/// raw pointers, so task bodies never race with concurrent issuance
/// mutating the forest (subregion creation). Accessors enforce the declared
/// privilege and field set.
///
/// Trivially copyable: the resolved field list is a span of the forest's
/// interned copy (RegionForest::resolve_fields), so copying a view, as the
/// bulk expansion does once per point and argument, allocates nothing.
class PhysicalRegion {
 public:
  /// An unmapped view; launch arenas size their region tables with it.
  PhysicalRegion() = default;
  PhysicalRegion(RegionForest& forest, RegionId region, const std::vector<FieldId>& fields,
                 Privilege priv, ReductionOp redop)
      : region_(region),
        domain_(&forest.region_domain(region)),
        storage_bounds_(forest.storage_bounds(region)),
        resolved_(forest.resolve_fields(region, fields)),
        priv_(priv),
        redop_(redop) {}

  template <typename T>
  Accessor<T> accessor(FieldId f) const {
    const ResolvedField& rf = resolve(f);
    return Accessor<T>(rf.data, rf.size, storage_bounds_, domain_, priv_, redop_);
  }

  RegionId region_id() const { return region_; }
  const Domain& domain() const { return *domain_; }
  Privilege privilege() const { return priv_; }

  /// Fill every element of `f` in this view with the `size`-byte pattern.
  /// Requires write privilege. Used by Runtime::fill; exposed for tasks
  /// that initialize type-erased data.
  void fill_bytes(FieldId f, const void* pattern, std::size_t size) {
    IDXL_REQUIRE(priv_ == Privilege::kWrite || priv_ == Privilege::kReadWrite,
                 "fill requires write privilege");
    const ResolvedField& rf = resolve(f);
    IDXL_REQUIRE(rf.size == size, "fill pattern size does not match the field");
    domain_->for_each_run([&](const Point& lo, int64_t n) {
      // One pattern copy, then double the filled prefix until the run is full.
      std::byte* dst = element(rf, lo);
      const std::size_t bytes = static_cast<std::size_t>(n) * size;
      std::memcpy(dst, pattern, size);
      for (std::size_t done = size; done < bytes; done *= 2)
        std::memcpy(dst + done, dst, std::min(done, bytes - done));
    });
  }

  /// Append every resolved field's bytes over this view's domain to `out`,
  /// fields in argument order, elements in Domain::for_each order, one run
  /// at a time. The symmetric pair to copy_in: the owning process extracts
  /// its written subregion, the others apply it — the explicit data
  /// movement Legion performs implicitly between memories.
  void copy_out(std::vector<std::byte>& out) const {
    for (const ResolvedField& rf : resolved_) {
      domain_->for_each_run([&](const Point& lo, int64_t n) {
        const std::byte* src = element(rf, lo);
        out.insert(out.end(), src, src + static_cast<std::size_t>(n) * rf.size);
      });
    }
  }

  /// Apply bytes produced by copy_out on an identical view, reading from
  /// `in` starting at `offset`; returns the offset one past the consumed
  /// range. Throws RuntimeError if `in` is too short.
  std::size_t copy_in(const std::vector<std::byte>& in, std::size_t offset) {
    for (const ResolvedField& rf : resolved_) {
      domain_->for_each_run([&](const Point& lo, int64_t n) {
        const std::size_t bytes = static_cast<std::size_t>(n) * rf.size;
        IDXL_REQUIRE(offset + bytes <= in.size(),
                     "remote region payload shorter than the region view");
        std::memcpy(element(rf, lo), in.data() + offset, bytes);
        offset += bytes;
      });
    }
    return offset;
  }

  /// Append field `f` over `rect` (row-major) to `out` — the delta-transfer
  /// extraction: a halo strip instead of the whole view. `rect` must lie
  /// within the root's storage bounds.
  void copy_out_rect(FieldId f, const Rect& rect, std::vector<std::byte>& out) const {
    const ResolvedField& rf = resolve(f);
    IDXL_REQUIRE(storage_bounds_.contains(rect),
                 "transfer rect escapes the region's storage bounds");
    out.reserve(out.size() + static_cast<std::size_t>(rect.volume()) * rf.size);
    Domain(rect).for_each_run([&](const Point& lo, int64_t n) {
      const std::byte* src = element(rf, lo);
      out.insert(out.end(), src, src + static_cast<std::size_t>(n) * rf.size);
    });
  }

  /// Apply a copy_out_rect payload to field `f` over `rect`. The symmetric
  /// pair: byte count must match the rect exactly.
  void copy_in_rect(FieldId f, const Rect& rect, const std::vector<std::byte>& in) {
    const ResolvedField& rf = resolve(f);
    IDXL_REQUIRE(storage_bounds_.contains(rect),
                 "transfer rect escapes the region's storage bounds");
    IDXL_REQUIRE(in.size() == static_cast<std::size_t>(rect.volume()) * rf.size,
                 "region patch payload does not match its rect");
    std::size_t offset = 0;
    Domain(rect).for_each_run([&](const Point& lo, int64_t n) {
      const std::size_t bytes = static_cast<std::size_t>(n) * rf.size;
      std::memcpy(element(rf, lo), in.data() + offset, bytes);
      offset += bytes;
    });
  }

 private:
  const ResolvedField& resolve(FieldId f) const {
    for (const ResolvedField& rf : resolved_)
      if (rf.id == f) return rf;
    throw RuntimeError("idxl: field was not requested by this region argument");
  }

  /// First byte of `rf`'s element at `p`, a point within the storage bounds.
  std::byte* element(const ResolvedField& rf, const Point& p) const {
    return rf.data + static_cast<std::size_t>(storage_bounds_.linearize(p)) * rf.size;
  }

  RegionId region_;
  const Domain* domain_ = nullptr;
  Rect storage_bounds_;
  std::span<const ResolvedField> resolved_;
  Privilege priv_ = Privilege::kRead;
  ReductionOp redop_ = ReductionOp::kNone;
};
static_assert(std::is_trivially_copyable_v<PhysicalRegion>);

/// Everything a task body receives: its launch point, the launch domain,
/// by-value arguments and mapped regions. The runtime builds one per attempt;
/// what it points at belongs to the launch and outlives the body.
struct TaskContext {
  Point point = Point::p1(0);
  /// The launch's domain (for a single task, its launcher's launch_domain).
  /// Refers to the launch's one copy: a sparse domain is a point list, and
  /// copying it into every task would make a launch cost O(|D|^2).
  const Domain* launch_domain = nullptr;
  /// The executing task's function id — lets post-execution hooks
  /// (on_task_success) dispatch on *what* ran, e.g. the distributed
  /// runtime's transfer task vs. an application body.
  TaskFnId fn = UINT32_MAX;
  const ArgBuffer* scalar_args = nullptr;
  /// The mapped region arguments in launcher order: this task's slice of
  /// its launch's region table. A retried attempt sees the same views.
  std::span<PhysicalRegion> regions;
  /// Scalar result of this task; collected by index launches issued with a
  /// result_redop (ignored otherwise).
  double return_value = 0.0;

  PhysicalRegion& region(std::size_t i) {
    IDXL_REQUIRE(i < regions.size(), "region argument index out of range");
    return regions[i];
  }

  template <typename T>
  const T& arg() const {
    IDXL_REQUIRE(scalar_args != nullptr, "task has no scalar arguments");
    return scalar_args->as<T>();
  }

  // --- fault API (docs/ROBUSTNESS.md) ---

  /// True once this attempt has been cancelled (per-launch timeout fired,
  /// the watchdog cancelled the run, or Runtime::cancel_all). Cancellation
  /// is cooperative: a body that returns normally still counts as success.
  bool cancelled() const { return current_task_cancelled(); }

  /// Throw TaskCancelled if cancelled() — the idiomatic poll inside loops of
  /// long-running bodies. The runtime records the task as timed out or
  /// cancelled (not retried).
  void check_cancelled() const {
    if (current_task_cancelled()) throw TaskCancelled();
  }

  /// 0 on the first execution, k on the k-th retry.
  uint32_t attempt() const { return current_fault_frame().attempt; }

  /// Fail this task explicitly. Retried under the launch's retry policy;
  /// once retries are exhausted the failure poisons downstream tasks and
  /// surfaces in the FaultReport with `message`.
  [[noreturn]] void fail(const std::string& message) const { throw TaskFailure(message); }
};

using TaskFn = std::function<void(TaskContext&)>;

}  // namespace idxl
