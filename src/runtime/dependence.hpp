#pragma once

#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "region/region_forest.hpp"
#include "runtime/task_graph.hpp"

namespace idxl {

/// Field sets are represented as 64-bit masks; a field space may declare at
/// most 64 fields (ample for the paper's workloads).
uint64_t field_mask(const std::vector<FieldId>& fields);

/// One recorded use of a piece of data by a live task. Shared between the
/// per-point DependenceTracker and the group-level GroupDependenceTracker,
/// so group state can be materialized into per-point state verbatim.
struct TaskUse {
  TaskNodePtr node;
  uint64_t fields = 0;
};

/// Append the live uses of `uses` whose fields conflict with `fields` to
/// `out_deps`; compact completed nodes out of `uses` along the way. Every
/// live use costs one conflict test, counted into `tests` (relaxed — the
/// counter is read live by Runtime::stats()).
///
/// `keep_done` (trace capture): cleanly completed uses still emit their
/// edge and stay in `uses` instead of compacting away. At capture time a
/// satisfied dependence is only *dynamically* satisfied — on replay the
/// predecessor runs again concurrently, so the edge must be recorded or
/// the replayed tasks race. Kept-done uses don't count into `tests`.
void collect_conflicting_uses(std::vector<TaskUse>& uses, uint64_t fields,
                              std::vector<TaskNodePtr>& out_deps,
                              std::atomic<uint64_t>& tests, bool keep_done = false);

/// Tracks, per region tree, which live tasks last wrote/read which index
/// spaces, and computes the dependence edges a newly issued task needs.
///
/// This is the executor-side analogue of the paper's logical + physical
/// analysis collapsed into one precise pass: uses are recorded at subregion
/// (index space) granularity, interference is domain overlap plus privilege
/// and field-mask conflict. Reductions are conservatively ordered like
/// writes by the executor (a legal serialization; the *safety analysis* in
/// src/analysis still treats reductions as commuting, per the paper).
///
/// Each (tree, index space) used so far has one slot. A use visits the
/// slots of the index spaces the forest's overlap index
/// (RegionForest::overlapping) lists for its own, so finding candidates
/// costs one cached lookup and a hash probe per listed index space, not a
/// scan of the live entries. Slots outlive fences; a fence clears only the
/// use lists of the slots touched since the last one.
///
/// Not thread-safe: called only from the issuing thread, matching the
/// sequential-issue semantics of the programming model (and the overlap
/// index's own rule).
class DependenceTracker {
 public:
  explicit DependenceTracker(RegionForest& forest) : forest_(&forest) {}

  /// Record that `node` uses `ispace` (in region tree `tree`) with the given
  /// field mask. Appends required predecessor nodes to `out_deps` (may
  /// contain duplicates; caller dedupes). Completed tasks are skipped and
  /// compacted away.
  ///
  /// `through`/`through_disjoint` identify the partition the subregion was
  /// taken from (invalid for root regions): two different subregions of the
  /// same disjoint partition can never overlap, so the tracker skips the
  /// domain test for such pairs — the same whole-partition reasoning that
  /// makes Legion's analysis of index launches cheap (§5).
  ///
  /// `keep_done` must be true while a trace is being captured (see
  /// collect_conflicting_uses): edges to already-completed predecessors
  /// have to land in the capture, or replay loses the ordering.
  void record_use(uint32_t tree, IndexSpaceId ispace, uint64_t fields, bool writes,
                  PartitionId through, bool through_disjoint, const TaskNodePtr& node,
                  std::vector<TaskNodePtr>& out_deps, bool keep_done = false);

  /// Install a fully-formed entry without scanning for conflicts — the
  /// GroupDependenceTracker materializing one summarized color into
  /// per-point state. Ordering among seeded uses was already established by
  /// the group edges; if the entry already exists the uses are appended in
  /// program order.
  void seed_entry(uint32_t tree, IndexSpaceId ispace, PartitionId through,
                  bool through_disjoint, std::vector<TaskUse>&& writers,
                  std::vector<TaskUse>&& readers);

  /// Drop all recorded uses (used at trace fences and wait_all). Costs
  /// O(slots touched since the last reset).
  void reset();

  uint64_t dependence_tests() const {
    return dependence_tests_.load(std::memory_order_relaxed);
  }

 private:
  /// One index space of one region tree: its uses since the last reset.
  struct Slot {
    IndexSpaceId ispace;
    PartitionId through;            // partition this subregion came from
    bool through_disjoint = false;
    bool touched = false;           // in touched_: used since the last reset
    std::vector<TaskUse> writers;  // writers/reducers since the last covering write
    std::vector<TaskUse> readers;
  };

  /// The slot of `ispace` in region tree `tree`, touched.
  Slot& slot(uint32_t tree, IndexSpaceId ispace);

  bool overlaps(IndexSpaceId a, IndexSpaceId b);
  bool contains(IndexSpaceId outer, IndexSpaceId inner);

  RegionForest* forest_;
  /// Keyed by (tree << 32 | ispace id). A hash map, not a table indexed by
  /// the forest-wide id: one forest may hold many tenants' index spaces.
  /// Rehashing never moves a node, so the Slot pointers below stay valid.
  std::unordered_map<uint64_t, Slot> slots_;
  std::vector<Slot*> touched_;
  std::vector<Slot*> nearby_;  // record_use's candidate buffer, reused
  std::unordered_map<uint64_t, bool> overlap_cache_;
  std::unordered_map<uint64_t, bool> contains_cache_;
  /// Atomic so Runtime::stats() can read it live mid-run; all writes come
  /// from the issuing thread.
  std::atomic<uint64_t> dependence_tests_{0};
};

}  // namespace idxl
