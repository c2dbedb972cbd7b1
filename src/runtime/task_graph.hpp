#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "region/point.hpp"
#include "runtime/fault.hpp"

namespace idxl {

/// Per-launch state every task of a launch shares (body, scalar arguments,
/// Future slots, retry policy, the tasks' mapped regions); defined by the
/// runtime that issues it.
struct LaunchArena;

/// The terminal state of a task that executed in another process, delivered
/// through Runtime::complete_external(). A healthy outcome (kind == kNone)
/// carries the owner's written region bytes and return value; a faulted one
/// carries the exact TaskFault ingredients so every rank records the
/// identical fault and propagates the identical poison closure.
/// One rectangular slice of remote region data: applied to write-privilege
/// region argument `arg` via PhysicalRegion::copy_in_rect. The delta-sized
/// unit of the distributed data plane (full-block outcomes use region_bytes
/// instead).
struct RegionPatch {
  uint32_t arg = 0;    ///< index into the task's region arguments
  uint32_t field = 0;  ///< FieldId of the patched field
  Rect rect;  ///< row-major payload layout over this rect
  std::vector<std::byte> bytes;
};

struct RemoteOutcome {
  FaultKind kind = FaultKind::kNone;
  uint64_t root = UINT64_MAX;  ///< root-cause seq (fault outcomes)
  uint32_t attempts = 0;
  std::string message;
  double ret = 0.0;  ///< TaskContext::return_value of the remote body
  /// False for slim delta-mode outcomes: the completing rank applies
  /// `patches` (possibly none — most ranks stay intentionally stale) and
  /// must not expect region_bytes to cover the written arguments.
  bool has_data = true;
  /// Written-region bytes in argument order (write-privilege args only),
  /// extracted by PhysicalRegion::copy_out on the owner and applied by
  /// copy_in here. Meaningful only when has_data.
  std::vector<std::byte> region_bytes;
  /// Delta-mode payload: rect-sized slices for this rank alone.
  std::vector<RegionPatch> patches;
};

/// One executable task instance in the real executor's dependence graph.
/// Edges are discovered at issue time by the DependenceTracker; a node runs
/// once every predecessor has completed, on the worker whose completion
/// readied it or through the thread pool.
///
/// Nodes are allocated in blocks, one per run of consecutive tasks of a
/// launch (Runtime::new_node); every TaskNodePtr aliases its block, which
/// is freed with its last node.
struct TaskNode {
  uint64_t seq = 0;            ///< global program-order sequence number
  /// Id of the launch this task expanded from — the cross-link key shared
  /// by the event log's lifecycle and span views.
  uint64_t launch = UINT64_MAX;

  // --- what the body runs with: attached before the closure guard drops,
  // released when the node settles -----------------------------------------
  std::shared_ptr<LaunchArena> arena;
  /// Index in the launch: the node's Future slot and its slice of the
  /// arena's region table.
  std::size_t rank = 0;
  /// When the node became ready (event-log clock; 0 while the log is off),
  /// stamped by whoever readied it before a worker starts it.
  uint64_t ready_ns = 0;

  /// Pending predecessor count plus one "issue guard" held while edges are
  /// still being added; the node becomes ready when this reaches zero.
  std::atomic<int64_t> pending{1};
  std::atomic<bool> done{false};

  /// Launch-domain point this task executes (dim 0 means "not an index
  /// point": single-task launches report Point::p1(0)).
  Point point = Point::p1(0);

  // --- fault state -------------------------------------------------------
  /// Terminal FaultKind once the node fails or is poisoned; written exactly
  /// once, before complete(), by the executing/poisoning worker.
  std::atomic<uint8_t> fault{0};
  /// Seq of the root-cause failure poisoning this node. Predecessors race to
  /// atomic-min this before decrementing `pending`, so by the time the node
  /// runs the value is the minimum failed ancestor seq — deterministic for a
  /// fixed dependence graph. UINT64_MAX means healthy.
  std::atomic<uint64_t> poison_root{UINT64_MAX};
  /// Cooperative-cancellation flag: set by the timeout timer or the
  /// watchdog's cancel action, observed via TaskContext::cancelled().
  std::atomic<bool> cancel_flag{false};
  std::atomic<bool> timed_out{false};

  // --- external (remote-owned) state ------------------------------------
  /// True when another process owns this point: the node is a placeholder in
  /// the dependence graph whose outcome arrives via complete_external(). An
  /// extra "remote guard" on `pending` keeps it from running until then.
  bool external = false;
  /// The delivered outcome; written before the remote guard is released, so
  /// run_node reads it without locking.
  std::unique_ptr<RemoteOutcome> remote;

  /// Attempt counter; only the (single) executing worker mutates it.
  uint32_t attempt = 0;

  FaultKind fault_kind() const {
    return static_cast<FaultKind>(fault.load(std::memory_order_acquire));
  }

  std::mutex mu;  // guards the successor list until complete()
  /// Successors in registration order: the first inline, since most nodes
  /// have at most one, and only the rest in a vector.
  std::shared_ptr<TaskNode> first_successor;
  std::vector<std::shared_ptr<TaskNode>> later_successors;

  /// The pool's reference while a job for this node is queued. The job
  /// captures a raw pointer, so std::function stores it without a heap
  /// block, and takes this reference back when it starts.
  std::shared_ptr<TaskNode> queued;

  /// Register `succ` as a successor. Returns false (and adds nothing) when
  /// this node already completed — the dependence is then trivially
  /// satisfied.
  bool add_successor(const std::shared_ptr<TaskNode>& succ) {
    std::lock_guard<std::mutex> lock(mu);
    if (done.load(std::memory_order_acquire)) return false;
    if (first_successor == nullptr)
      first_successor = succ;
    else
      later_successors.push_back(succ);
    return true;
  }

  /// Mark complete. No successor is added after this, so the completing
  /// thread reads the list (successor_count, successor) without the lock.
  void complete() {
    std::lock_guard<std::mutex> lock(mu);
    done.store(true, std::memory_order_release);
  }
  std::size_t successor_count() const {
    return first_successor == nullptr ? 0 : 1 + later_successors.size();
  }
  std::shared_ptr<TaskNode>& successor(std::size_t i) {
    return i == 0 ? first_successor : later_successors[i - 1];
  }
};

using TaskNodePtr = std::shared_ptr<TaskNode>;

/// Late-edge poison inheritance: when add_successor() finds `dep` already
/// complete, dep's fan-out can no longer reach `node`, so a faulted dep's
/// root must be copied over here (atomic-min, same rule as fan-out). The
/// done=true read under dep's mutex orders dep's fault/poison_root stores
/// (both precede complete()) before these loads.
inline void inherit_poison(const TaskNode& dep, TaskNode& node) {
  if (dep.fault_kind() == FaultKind::kNone) return;
  const uint64_t root = dep.poison_root.load(std::memory_order_acquire);
  if (root == UINT64_MAX) return;
  uint64_t cur = node.poison_root.load(std::memory_order_relaxed);
  while (root < cur && !node.poison_root.compare_exchange_weak(
                           cur, root, std::memory_order_acq_rel))
    ;
}

}  // namespace idxl
