#pragma once

#include <cstdint>
#include <vector>

#include "region/point.hpp"

namespace idxl {

/// Static bounding-volume hierarchy over (Rect, id) items.
///
/// Legion's physical analysis uses a distributed BVH to find the
/// sub-collections a task's regions interfere with in O(log |P|) instead of
/// scanning every partition color (§5). This is the in-process analogue:
/// RegionForest builds one per index-space tree for its overlap index
/// (RegionForest::overlapping), which the per-point dependence tracker, the
/// delta plane's version map and its alias test look candidates up in, and
/// the physical-analysis cost model of the simulator charges the log factor
/// it provides.
///
/// Built once over a snapshot of items (median split on the longest axis);
/// queries report every item whose rect overlaps the probe rect. Callers
/// layer their own exact tests on top (rects here are bounding boxes of
/// possibly-sparse domains).
class RectBVH {
 public:
  RectBVH() = default;

  /// Build from items; empties any previous tree. O(n log n).
  void build(std::vector<std::pair<Rect, uint32_t>> items);

  bool empty() const { return nodes_.empty(); }
  std::size_t size() const { return item_count_; }

  /// Invoke fn(id) for every item whose rect overlaps `query`.
  template <typename Fn>
  void query(const Rect& query, Fn&& fn) const {
    if (nodes_.empty()) return;
    query_node(0, query, fn);
  }

  /// Number of node visits performed by the last query (for tests /
  /// complexity assertions). Not thread-safe; diagnostic only.
  std::size_t last_query_visits() const { return last_visits_; }

 private:
  struct Node {
    Rect bounds;
    // Leaf: item index range [first, first+count) into items_.
    // Interior: children at left/right.
    uint32_t first = 0;
    uint32_t count = 0;   // > 0 marks a leaf
    uint32_t left = 0;
    uint32_t right = 0;
  };

  static constexpr uint32_t kLeafSize = 4;

  uint32_t build_node(uint32_t first, uint32_t count);

  template <typename Fn>
  void query_node(uint32_t index, const Rect& query, Fn&& fn) const {
    ++last_visits_;
    const Node& node = nodes_[index];
    if (!node.bounds.overlaps(query)) return;
    if (node.count > 0) {
      for (uint32_t i = node.first; i < node.first + node.count; ++i) {
        ++last_visits_;
        if (items_[i].first.overlaps(query)) fn(items_[i].second);
      }
      return;
    }
    query_node(node.left, query, fn);
    query_node(node.right, query, fn);
  }

  std::vector<std::pair<Rect, uint32_t>> items_;
  std::vector<Node> nodes_;
  std::size_t item_count_ = 0;
  mutable std::size_t last_visits_ = 0;
};

}  // namespace idxl
