#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "functor/projection.hpp"
#include "obs/trace_context.hpp"
#include "region/accessor.hpp"
#include "region/region_forest.hpp"

namespace idxl {

using TaskFnId = uint32_t;

/// A region argument of a *single* task launch: a concrete region.
struct RegionArg {
  RegionId region;
  std::vector<FieldId> fields;
  Privilege privilege = Privilege::kRead;
  ReductionOp redop = ReductionOp::kNone;
};

/// A region argument of an *index* launch (§3): ⟨partition, projection
/// functor⟩ plus privilege. The parent region identifies which collection
/// the partition partitions; the functor maps each launch point to the
/// color of the sub-collection that point's task receives.
struct ProjectedArg {
  RegionId parent;
  PartitionId partition;
  ProjectionFunctor functor = ProjectionFunctor::identity(1);
  std::vector<FieldId> fields;
  Privilege privilege = Privilege::kRead;
  ReductionOp redop = ReductionOp::kNone;
};

/// Untyped by-value task arguments ("non-collection arguments, which are
/// simply passed to the task by value", §3).
class ArgBuffer {
 public:
  ArgBuffer() = default;

  template <typename T>
  static ArgBuffer of(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    ArgBuffer b;
    b.bytes_.resize(sizeof(T));
    std::memcpy(b.bytes_.data(), &value, sizeof(T));
    return b;
  }

  template <typename T>
  const T& as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    IDXL_REQUIRE(bytes_.size() == sizeof(T), "task argument size mismatch");
    return *reinterpret_cast<const T*>(bytes_.data());
  }

  bool empty() const { return bytes_.empty(); }
  std::size_t size() const { return bytes_.size(); }

  /// Raw bytes, for serialization.
  const std::vector<std::byte>& raw() const { return bytes_; }
  static ArgBuffer from_bytes(std::vector<std::byte> bytes) {
    ArgBuffer b;
    b.bytes_ = std::move(bytes);
    return b;
  }

 private:
  std::vector<std::byte> bytes_;
};

/// Launcher for one task on concrete regions. `point`/`launch_domain`
/// identify the iteration when the task is one step of a sequential task
/// loop (the No-IDX / fallback form of an index launch), so task bodies see
/// the same TaskContext under either execution strategy.
///
/// The fluent builder form is the primary construction path:
///
///   rt.execute(TaskLauncher::for_task(init)
///                  .region(grid, {f_v}, Privilege::kWrite)
///                  .scalars(params));
///
/// Plain aggregate initialization keeps working — the builders are ordinary
/// member functions, so the struct remains an aggregate and the two forms
/// produce identical launchers.
struct TaskLauncher {
  TaskFnId task = 0;
  std::vector<RegionArg> args;
  ArgBuffer scalar_args;
  Point point = Point::p1(0);
  Domain launch_domain = Domain::line(1);
  /// When not kNone, execute() yields a Future holding the task's
  /// return_value (folded trivially: one producer).
  ReductionOp result_redop = ReductionOp::kNone;
  /// Retry policy (see docs/ROBUSTNESS.md): a retryable failure (exception,
  /// explicit fail, injected fault) re-enqueues the task up to `max_retries`
  /// times with exponential backoff; `timeout_ms` > 0 arms a timer that
  /// cancels the attempt cooperatively.
  uint32_t max_retries = 0;
  uint32_t retry_backoff_ms = 0;
  uint32_t timeout_ms = 0;
  /// Runtime-generated helper task (e.g. a distributed delta transfer):
  /// participates in dependence analysis and poison propagation like any
  /// task, but its own faults stay out of the user-facing FaultReport.
  bool internal = false;
  /// Distributed-tracing context (wire v4): the driver stamps the origin
  /// rank and the launch id this descriptor was assigned locally, so every
  /// replica can assert its own stream stayed aligned and remote spans
  /// carry a causal parent. Invalid (default) for purely local launches.
  obs::TraceContext trace_ctx;

  // --- fluent builders ---
  static TaskLauncher for_task(TaskFnId id) {
    TaskLauncher l;
    l.task = id;
    return l;
  }
  /// Append a region argument.
  TaskLauncher& region(RegionId r, std::vector<FieldId> fields, Privilege priv,
                       ReductionOp redop = ReductionOp::kNone) {
    args.push_back(RegionArg{r, std::move(fields), priv, redop});
    return *this;
  }
  /// By-value task arguments (any trivially copyable struct).
  template <typename T>
  TaskLauncher& scalars(const T& value) {
    scalar_args = ArgBuffer::of(value);
    return *this;
  }
  TaskLauncher& scalars(ArgBuffer buffer) {
    scalar_args = std::move(buffer);
    return *this;
  }
  /// Identify the task-loop iteration this launch represents.
  TaskLauncher& at(const Point& p, Domain domain) {
    point = p;
    launch_domain = std::move(domain);
    return *this;
  }
  /// Collect the task's return value into LaunchResult::future.
  TaskLauncher& reduce(ReductionOp op) {
    result_redop = op;
    return *this;
  }
  /// Retry a failed body up to `n` times before poisoning downstream.
  TaskLauncher& retries(uint32_t n) {
    max_retries = n;
    return *this;
  }
  /// First-retry delay; doubles on each subsequent retry.
  TaskLauncher& backoff(uint32_t ms) {
    retry_backoff_ms = ms;
    return *this;
  }
  /// Mark as a runtime-generated helper task (kept out of FaultReports).
  TaskLauncher& as_internal() {
    internal = true;
    return *this;
  }
  /// Cancel an attempt cooperatively after `ms` (0 disables).
  TaskLauncher& timeout(uint32_t ms) {
    timeout_ms = ms;
    return *this;
  }
};

/// Launcher for an index launch: the O(1) descriptor of |domain| tasks.
/// Note the descriptor's size is independent of the domain volume — the
/// paper's central representation claim; `sizeof` is checked by tests.
///
/// The fluent builder form is the primary construction path:
///
///   rt.execute_index(IndexLauncher::over(Domain::line(16))
///                        .with_task(diffuse)
///                        .region(grid, halos, id, {f_t}, Privilege::kRead)
///                        .region(grid, blocks, id, {f_t2}, Privilege::kWrite)
///                        .reduce(ReductionOp::kSum));
///
/// Plain aggregate initialization keeps working and builds the identical
/// descriptor (tests assert byte-equality of the serialized forms).
struct IndexLauncher {
  TaskFnId task = 0;
  Domain domain;
  std::vector<ProjectedArg> args;
  ArgBuffer scalar_args;
  /// Set by a compiler that has already discharged the §3 non-interference
  /// conditions (statically, or via an emitted dynamic check). The runtime
  /// then skips its own safety analysis (§5: "the runtime assumes that
  /// safety checks have already been performed in a previous stage").
  bool assume_verified = false;
  /// When not kNone, each point task's TaskContext::return_value is folded
  /// with this commutative operator and the launch yields a Future (the
  /// future-map reduction of task-based runtimes). The fold happens in
  /// launch-point rank order, so floating-point results are deterministic.
  ReductionOp result_redop = ReductionOp::kNone;
  /// Retry policy, applied independently to every point task of the launch
  /// (see docs/ROBUSTNESS.md and TaskLauncher for semantics).
  uint32_t max_retries = 0;
  uint32_t retry_backoff_ms = 0;
  uint32_t timeout_ms = 0;
  /// Distributed-tracing context (wire v4); see TaskLauncher::trace_ctx.
  obs::TraceContext trace_ctx;

  // --- fluent builders ---
  static IndexLauncher over(Domain launch_domain) {
    IndexLauncher l;
    l.domain = std::move(launch_domain);
    return l;
  }
  IndexLauncher& with_task(TaskFnId id) {
    task = id;
    return *this;
  }
  /// Append a projected region argument: each launch point p receives the
  /// ⟨parent, partition⟩ sub-collection colored functor(p).
  IndexLauncher& region(RegionId parent, PartitionId partition,
                        ProjectionFunctor functor, std::vector<FieldId> fields,
                        Privilege priv, ReductionOp redop = ReductionOp::kNone) {
    args.push_back(ProjectedArg{parent, partition, std::move(functor),
                                std::move(fields), priv, redop});
    return *this;
  }
  /// By-value task arguments (any trivially copyable struct).
  template <typename T>
  IndexLauncher& scalars(const T& value) {
    scalar_args = ArgBuffer::of(value);
    return *this;
  }
  IndexLauncher& scalars(ArgBuffer buffer) {
    scalar_args = std::move(buffer);
    return *this;
  }
  /// Fold per-task return values; the launch then yields a Future.
  IndexLauncher& reduce(ReductionOp op) {
    result_redop = op;
    return *this;
  }
  /// Mark the launch compiler-verified: the runtime skips its own checks.
  IndexLauncher& verified(bool v = true) {
    assume_verified = v;
    return *this;
  }
  /// Retry a failed point task up to `n` times before poisoning downstream.
  IndexLauncher& retries(uint32_t n) {
    max_retries = n;
    return *this;
  }
  /// First-retry delay; doubles on each subsequent retry.
  IndexLauncher& backoff(uint32_t ms) {
    retry_backoff_ms = ms;
    return *this;
  }
  /// Cancel a point-task attempt cooperatively after `ms` (0 disables).
  IndexLauncher& timeout(uint32_t ms) {
    timeout_ms = ms;
    return *this;
  }
};

}  // namespace idxl
