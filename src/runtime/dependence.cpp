#include "runtime/dependence.hpp"

namespace idxl {

uint64_t field_mask(const std::vector<FieldId>& fields) {
  uint64_t mask = 0;
  for (FieldId f : fields) {
    IDXL_REQUIRE(f < 64, "at most 64 fields per field space are supported");
    mask |= uint64_t{1} << f;
  }
  return mask;
}

void collect_conflicting_uses(std::vector<TaskUse>& uses, uint64_t fields,
                              std::vector<TaskNodePtr>& out_deps,
                              std::atomic<uint64_t>& tests, bool keep_done) {
  std::size_t keep = 0;
  uint64_t performed = 0;
  for (std::size_t i = 0; i < uses.size(); ++i) {
    TaskUse& u = uses[i];
    if (u.node->done.load(std::memory_order_acquire)) {
      // Clean completions compact out: the dependence is trivially
      // satisfied. A *faulted* completion must stay — its data is garbage,
      // so every later conflicting use still inherits its poison (the edge
      // is reported; schedule()'s late-edge path copies the root over).
      // Under `keep_done` (trace capture) clean completions also stay and
      // report their edge: "trivially satisfied" holds for this execution
      // only, while the captured trace must order every replay.
      if (u.node->fault_kind() == FaultKind::kNone && !keep_done) continue;
      if (u.fields & fields) out_deps.push_back(u.node);
      if (keep != i) uses[keep] = std::move(u);
      ++keep;
      continue;
    }
    ++performed;
    if (u.fields & fields) out_deps.push_back(u.node);
    if (keep != i) uses[keep] = std::move(u);
    ++keep;
  }
  uses.resize(keep);
  if (performed != 0) tests.fetch_add(performed, std::memory_order_relaxed);
}

bool DependenceTracker::overlaps(IndexSpaceId a, IndexSpaceId b) {
  if (a == b) return true;
  const uint64_t key = a.id <= b.id ? (uint64_t{a.id} << 32 | b.id)
                                    : (uint64_t{b.id} << 32 | a.id);
  auto it = overlap_cache_.find(key);
  if (it != overlap_cache_.end()) return it->second;
  const bool result = !forest_->domain(a).disjoint_from(forest_->domain(b));
  overlap_cache_.emplace(key, result);
  return result;
}

bool DependenceTracker::contains(IndexSpaceId outer, IndexSpaceId inner) {
  if (outer == inner) return true;
  const uint64_t key = uint64_t{outer.id} << 32 | inner.id;
  auto it = contains_cache_.find(key);
  if (it != contains_cache_.end()) return it->second;
  const bool result = forest_->domain(outer).contains_domain(forest_->domain(inner));
  contains_cache_.emplace(key, result);
  return result;
}

DependenceTracker::Slot& DependenceTracker::slot(uint32_t tree, IndexSpaceId ispace) {
  Slot& s = slots_[uint64_t{tree} << 32 | ispace.id];
  if (!s.ispace.valid()) {
    s.ispace = ispace;
    s.empty = forest_->domain(ispace).bounds().empty();
  }
  if (!s.touched) {
    s.touched = true;
    touched_.push_back(&s);
  }
  return s;
}

DependenceTracker::Tree& DependenceTracker::tree_state(uint32_t tree) {
  if (tree != last_tree_) {
    last_tree_ = tree;
    last_state_ = &trees_[tree];
  }
  return *last_state_;
}

void DependenceTracker::record_use(uint32_t tree, IndexSpaceId ispace, uint64_t fields,
                                   bool writes, PartitionId through,
                                   bool through_disjoint, const TaskNodePtr& node,
                                   std::vector<TaskNodePtr>& out_deps, bool keep_done) {
  nearby_.clear();
  Slot* mine = nullptr;
  Tree& t = tree_state(tree);
  if (!t.one.valid() && !t.mixed) touched_trees_.push_back(&t);
  if (through_disjoint && !t.mixed && (!t.one.valid() || t.one == through)) {
    // Whole-partition rule: every slot of this tree touched since the last
    // reset is a color of `through`, and distinct colors never overlap.
    t.one = through;
    mine = &slot(tree, ispace);
    if (!mine->empty) nearby_.push_back(mine);
  } else {
    // Candidates: the slots used since the last reset among the index
    // spaces whose bounds overlap this one's (the forest's overlap index).
    // Exact domain tests follow below, so bounding boxes of sparse domains
    // are a sound over-approximation.
    t.mixed = true;
    for (IndexSpaceId other : forest_->overlapping(ispace)) {
      const auto it = slots_.find(uint64_t{tree} << 32 | other.id);
      if (it != slots_.end() && it->second.touched) nearby_.push_back(&it->second);
    }
  }

  for (Slot* entry : nearby_) {
    // Whole-partition disjointness: distinct colors of one disjoint
    // partition never overlap — no domain test needed.
    if (through_disjoint && entry->through == through && !(entry->ispace == ispace))
      continue;
    if (!overlaps(ispace, entry->ispace)) continue;
    // Readers always conflict with prior writers; writers additionally
    // conflict with prior readers (anti-dependence).
    collect_conflicting_uses(entry->writers, fields, out_deps, dependence_tests_,
                             keep_done);
    if (writes)
      collect_conflicting_uses(entry->readers, fields, out_deps, dependence_tests_,
                               keep_done);
  }

  if (writes) {
    // A write supersedes every use it fully covers (same or subset fields):
    // later tasks ordering against this write are transitively ordered
    // against the superseded uses. Containment implies bounds overlap, so
    // the candidate set covers every prunable slot.
    for (Slot* entry : nearby_) {
      if (through_disjoint && entry->through == through && !(entry->ispace == ispace))
        continue;
      if (!contains(ispace, entry->ispace)) continue;
      auto prune = [fields](std::vector<TaskUse>& uses) {
        std::erase_if(uses,
                      [fields](const TaskUse& u) { return (u.fields & ~fields) == 0; });
      };
      prune(entry->writers);
      prune(entry->readers);
    }
  }

  if (mine == nullptr) mine = &slot(tree, ispace);
  mine->through = through;
  (writes ? mine->writers : mine->readers).push_back(TaskUse{node, fields});
}

void DependenceTracker::reset() {
  for (Slot* s : touched_) {
    s->writers.clear();
    s->readers.clear();
    s->touched = false;
  }
  touched_.clear();
  for (Tree* t : touched_trees_) *t = Tree{};
  touched_trees_.clear();
}

}  // namespace idxl
