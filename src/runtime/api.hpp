#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/hybrid.hpp"
#include "obs/metrics.hpp"
#include "runtime/fault.hpp"
#include "runtime/physical.hpp"
#include "runtime/types.hpp"

namespace idxl {

/// Counters exposing the asymptotic behaviour the paper argues about; tests
/// assert on these (e.g. an index launch is a single runtime call
/// regardless of |D|, the fallback loop is |D| calls).
struct RuntimeStats {
  uint64_t runtime_calls = 0;       ///< task issuance API calls (§5 issuance)
  uint64_t single_launches = 0;
  uint64_t index_launches = 0;
  uint64_t point_tasks = 0;         ///< tasks actually executed
  uint64_t dependence_edges = 0;
  uint64_t launches_safe_static = 0;
  uint64_t launches_safe_dynamic = 0;
  uint64_t launches_safe_unchecked = 0;
  uint64_t launches_assumed_verified = 0;  ///< compiler-verified (assume_verified)
  uint64_t launches_unsafe = 0;     ///< fell back to the task loop
  uint64_t dynamic_check_points = 0;
  uint64_t traced_tasks_replayed = 0;
  uint64_t tasks_completed = 0;     ///< tasks whose body has returned (live)
  /// Tasks a worker started right after its own completion readied them,
  /// without a trip through the pool queue (live).
  uint64_t tasks_inline = 0;
  uint64_t dependence_tests = 0;    ///< per-use conflict tests, both tiers (live)
  uint64_t verdict_cache_hits = 0;   ///< launches served from the verdict cache
  uint64_t verdict_cache_misses = 0; ///< cacheable launches analyzed afresh
  // --- group-level (two-tier) dependence analysis ---
  uint64_t group_launches = 0;       ///< index launches issued on the group path
  uint64_t group_edges = 0;          ///< launch-level summary conflicts (O(args))
  uint64_t group_fallbacks = 0;      ///< safe launches forced onto the per-point path
  uint64_t group_materializations = 0;  ///< trees flushed group → per-point
  // --- inter-launch interference analysis (certified pair verdicts) ---
  uint64_t interference_pair_tests = 0;  ///< pair analyses run (cache misses)
  uint64_t interference_skips = 0;   ///< group walks skipped on a checked certificate
  uint64_t interference_cache_hits = 0;
  uint64_t interference_cache_misses = 0;
  // --- fault tolerance ---
  uint64_t tasks_failed = 0;        ///< terminal root-cause failures, all kinds
  uint64_t tasks_poisoned = 0;      ///< tasks skipped due to upstream failure
  uint64_t fault_injections = 0;    ///< FaultPlan injections fired
  uint64_t retry_attempts = 0;      ///< failed attempts re-enqueued
  uint64_t retries_succeeded = 0;   ///< tasks that succeeded after >= 1 retry
};

/// Deferred reduction of an index launch's per-task return values.
/// Resolve through RuntimeApi::get(future): it blocks until the producing
/// tasks have run, then folds the values in launch-point rank order
/// (deterministic floating point).
class Future {
 public:
  Future() = default;
  bool valid() const { return state_ != nullptr; }

  /// Fold the collected values. The producing launch must have completed
  /// (RuntimeApi::get handles the wait; call this directly only after
  /// wait_all()).
  double resolve() const;

  /// Deprecated shim — prefer rt.get(future). Equivalent to Runtime::
  /// wait_all() + resolve(), with the reduction span recorded when `rt`
  /// profiles.
  double get(class Runtime& rt) const;

 private:
  friend class Runtime;
  friend struct LaunchArena;  // fills the slots as the launch's tasks finish
  struct State {
    std::vector<double> values;  // indexed by launch-point rank
    ReductionOp op = ReductionOp::kNone;
  };
  std::shared_ptr<State> state_;
};

/// The outcome handed back by every launch call — execute() and
/// execute_index() return the same shape, so callers handle both launch
/// kinds uniformly. For single-task launches the safety report is trivially
/// safe (one task cannot interfere with itself) and ran_as_index_launch is
/// false.
struct LaunchResult {
  SafetyReport safety;
  bool ran_as_index_launch = false;
  Future future;  ///< valid iff the launcher set result_redop
  /// Id of this launch — the key into FaultReport::for_launch (and the
  /// event log's lifecycle / span cross-link).
  uint64_t launch_id = UINT64_MAX;
};

/// The backend-independent runtime interface (the Specx-style "one task API
/// across backends"): `Runtime` (local thread pool) and
/// `DistributedRuntime` (control replication over in-process ranks, forked
/// processes or remote daemons, src/dist) implement it, so a workload
/// written against RuntimeApi runs unmodified on every backend. Construct
/// through make_runtime() (src/dist/backend.hpp) to pick the backend from
/// config or $IDXL_BACKEND.
///
/// Contract notes:
///  * Issuance calls (register_task, execute, execute_index, fill) must
///    come from a single thread, as with Runtime.
///  * register_task must precede the first launch and must happen in the
///    same order on every process of a distributed run (task ids are
///    positional).
///  * fault_report() is complete only after wait_all(); wait_all is the
///    fence that merges cross-process outcomes.
class RuntimeApi {
 public:
  RuntimeApi() = default;
  virtual ~RuntimeApi() = default;
  RuntimeApi(const RuntimeApi&) = delete;
  RuntimeApi& operator=(const RuntimeApi&) = delete;

  /// The region forest launches name their collections in. Setup (index
  /// spaces, fields, partitions, regions) must happen before the first
  /// launch.
  virtual RegionForest& forest() = 0;

  /// Register a task body under a new id.
  virtual TaskFnId register_task(std::string name, TaskFn fn) = 0;

  /// Launch a single task (program-order semantics; §2).
  virtual LaunchResult execute(const TaskLauncher& launcher) = 0;

  /// Launch |domain| tasks as one index launch (§3) — the O(1) descriptor
  /// whose safety analysis, expansion and (in dist mode) shipping the
  /// backend handles.
  virtual LaunchResult execute_index(const IndexLauncher& launcher) = 0;

  /// Fence: block until every issued task reached a terminal state, on every
  /// rank of the backend.
  virtual void wait_all() = 0;

  /// Structured outcome of every failure so far: root causes plus the
  /// poisoned closure, sorted by task seq. Call after wait_all(); empty
  /// report = clean run. Distributed backends return the merged,
  /// cross-process-verified report.
  virtual FaultReport fault_report() const = 0;

  /// Backend counters mapped onto the common shape. Live (any thread).
  virtual RuntimeStats stats() const = 0;

  /// The metrics registry backing stats().
  virtual obs::MetricsRegistry& metrics() = 0;

  /// Run `program`, fence, and return the merged FaultReport.
  FaultReport run(const std::function<void(RuntimeApi&)>& program);

  /// Resolve a launch's Future: fence, then fold the collected values.
  double get(const Future& future);

  /// Make region data readable from top-level code: fence and (where the
  /// backend keeps replicas) synchronize storage. read_region calls it.
  virtual void sync_for_read() = 0;

  /// Fill every element of field `f` of region `r` with the `size`-byte
  /// pattern, as a task ordered against every launch touching that data.
  virtual void fill_bytes_region(RegionId r, FieldId f, const void* pattern,
                                 std::size_t size) = 0;

  /// Read access to region data from top-level code (fences first).
  template <typename T>
  Accessor<T> read_region(RegionId r, FieldId f) {
    sync_for_read();
    return Accessor<T>(forest(), r, f, Privilege::kRead);
  }

  /// Typed fill — see fill_bytes_region.
  template <typename T>
  void fill(RegionId r, FieldId f, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    IDXL_REQUIRE(forest().field(forest().region(r).fspace, f).size == sizeof(T),
                 "fill value type does not match the field size");
    fill_bytes_region(r, f, &value, sizeof(T));
  }
};

/// Scalar arguments of the fill task every backend lowers
/// fill_bytes_region to.
struct FillArgs {
  FieldId field = 0;
  std::size_t size = 0;
  unsigned char pattern[16] = {};
};

/// The fill task's body: writes the pattern over one field of region 0.
void fill_task_body(TaskContext& ctx);

/// The single-task launcher of a fill, its task id left for the backend to
/// set. Throws RuntimeError unless the pattern fits FillArgs and matches
/// the field's size: the pattern can be client bytes (idxl-served's kFill).
TaskLauncher make_fill_launcher(const RegionForest& forest, RegionId r, FieldId f,
                                const void* pattern, std::size_t size);

}  // namespace idxl
