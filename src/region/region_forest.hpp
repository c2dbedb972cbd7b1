#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "region/bvh.hpp"
#include "region/domain.hpp"

namespace idxl {

/// Strongly-typed handles. All region-tree objects are owned by a
/// RegionForest and referred to by value handles, mirroring Legion's API
/// (handles are cheap to copy into task descriptors and launchers).
struct IndexSpaceId {
  uint32_t id = UINT32_MAX;
  bool valid() const { return id != UINT32_MAX; }
  friend bool operator==(IndexSpaceId a, IndexSpaceId b) { return a.id == b.id; }
};
struct FieldSpaceId {
  uint32_t id = UINT32_MAX;
  bool valid() const { return id != UINT32_MAX; }
  friend bool operator==(FieldSpaceId a, FieldSpaceId b) { return a.id == b.id; }
};
struct PartitionId {
  uint32_t id = UINT32_MAX;
  bool valid() const { return id != UINT32_MAX; }
  friend bool operator==(PartitionId a, PartitionId b) { return a.id == b.id; }
  friend bool operator!=(PartitionId a, PartitionId b) { return a.id != b.id; }
};
struct RegionId {
  uint32_t id = UINT32_MAX;
  bool valid() const { return id != UINT32_MAX; }
  friend bool operator==(RegionId a, RegionId b) { return a.id == b.id; }
  friend bool operator!=(RegionId a, RegionId b) { return a.id != b.id; }
};
using FieldId = uint32_t;

/// How a partition's disjointness is established at creation.
enum class Disjointness {
  kDisjoint,  ///< creator guarantees subspaces don't overlap (checked in debug)
  kAliased,   ///< subspaces may overlap (e.g. halo partitions)
  kCompute,   ///< forest verifies pairwise and records the result
};

/// A collection in the paper's terminology: an index space paired with a
/// field space, plus (for root regions) backing storage. Subregions are
/// views onto the root's storage, exactly the "views onto the same
/// underlying data" of §2.
struct RegionInfo {
  RegionId handle;
  RegionId root;        // == handle for root regions
  uint32_t tree_id = 0; // regions in different trees never interfere
  IndexSpaceId ispace;
  FieldSpaceId fspace;
  PartitionId through;  // partition this subregion was taken from (invalid for roots)
  Point color;          // color within `through`
};

struct FieldInfo {
  FieldId id = 0;
  std::size_t size = 0;
  std::string name;
};

/// One field of a root region's storage as a mapped region view reads it:
/// the field id, the root's raw bytes of that field and the element size.
struct ResolvedField {
  FieldId id = 0;
  std::byte* data = nullptr;
  std::size_t size = 0;
};

/// One recorded forest-construction call. The journal of these ops is the
/// portable description of the forest: replaying it into an empty forest
/// yields identical handles (ids are assigned sequentially), which is how a
/// remote worker process reconstructs the driver's region tree at startup.
struct SetupOp {
  enum class Kind : uint8_t {
    kIndexSpace,   ///< create_index_space(domain)
    kFieldSpace,   ///< create_field_space()
    kField,        ///< allocate_field(a, b, name)
    kPartition,    ///< create_partition(a, color_space, subspaces, disjointness)
    kRegion,       ///< create_region(a, b)
    kSubregion,    ///< subregion(a, b, color)
  };
  Kind kind = Kind::kIndexSpace;
  Domain domain;                  // kIndexSpace
  uint32_t a = 0;                 // first id operand (see Kind comments)
  uint32_t b = 0;                 // second id operand / field size
  std::string name;               // kField
  Rect color_space;               // kPartition
  std::vector<Domain> subspaces;  // kPartition
  uint8_t disjointness = 0;       // kPartition
  Point color;                    // kSubregion
};

/// Owner of the region "forest": index spaces, field spaces, partitions,
/// logical regions and the physical storage of root regions. Thread-safe
/// for concurrent *reads* after setup; creation calls, and the caches
/// resolve_fields and overlapping fill, must be serialized (the runtime's
/// issue loop is single-threaded, as in Legion's application-visible API).
class RegionForest {
 public:
  RegionForest() = default;
  RegionForest(const RegionForest&) = delete;
  RegionForest& operator=(const RegionForest&) = delete;

  // --- index spaces ---
  IndexSpaceId create_index_space(Domain domain);
  const Domain& domain(IndexSpaceId is) const;

  // --- field spaces ---
  FieldSpaceId create_field_space();
  FieldId allocate_field(FieldSpaceId fs, std::size_t field_size, std::string name);
  const FieldInfo& field(FieldSpaceId fs, FieldId f) const;
  const std::vector<FieldInfo>& fields(FieldSpaceId fs) const;

  // --- partitions ---
  /// Create a partition of `parent` with a dense `color_space`; `subspaces`
  /// holds one domain per color in row-major color order.
  PartitionId create_partition(IndexSpaceId parent, const Rect& color_space,
                               std::vector<Domain> subspaces, Disjointness d);

  IndexSpaceId subspace(PartitionId p, const Point& color) const;
  const Rect& color_space(PartitionId p) const;
  IndexSpaceId partition_parent(PartitionId p) const;
  bool is_disjoint(PartitionId p) const;

  /// Brute-force pairwise disjointness verification; the "procedure for
  /// determining the disjointness of partitions" the paper assumes (§2).
  bool verify_disjoint(PartitionId p) const;

  // --- logical regions ---
  /// Create a root region and allocate storage for every field.
  RegionId create_region(IndexSpaceId is, FieldSpaceId fs);
  /// Subregion view of `parent` through partition `p` at `color`. Cached:
  /// repeated calls return the same handle.
  RegionId subregion(RegionId parent, PartitionId p, const Point& color);
  /// Every subregion of `parent` through `p`, one per color in row-major
  /// color order. Materializes (and caches) the whole table on first use,
  /// so issuing an index launch costs one lookup per color instead of one
  /// hash probe per point. The returned reference stays valid for the
  /// forest's lifetime.
  const std::vector<RegionId>& subregion_table(RegionId parent, PartitionId p);
  const RegionInfo& region(RegionId r) const;
  const Domain& region_domain(RegionId r) const { return domain(region(r).ispace); }

  /// Do two regions possibly name common data? (Same tree and overlapping
  /// index-space domains.)
  bool regions_interfere(RegionId a, RegionId b) const;

  /// Whole-partition independence (§5, logical analysis): launches on
  /// logical partition (ra, p) and (rb, q) can never touch common data when
  /// the regions live in different trees, or when their parent index-space
  /// domains are disjoint.
  bool partitions_independent(RegionId ra, PartitionId p, RegionId rb,
                              PartitionId q) const;

  /// The index spaces of `is`'s index-space tree whose bounding rects
  /// overlap `is`'s, sorted by id; `is` itself is one of them unless its
  /// domain is empty. A subspace belongs to its partition parent's tree.
  /// This is the forest's overlap index (§5 finds interfering
  /// sub-collections through a BVH, not by a scan): the first query after a
  /// tree changed builds one RectBVH over the tree's members, each list is
  /// computed on its own first query, and both are kept until the tree gains
  /// a partition. Bounds only: callers that need exact overlap of sparse
  /// domains test it themselves. Building is a mutation: call it only from
  /// the issuing thread, like resolve_fields. The span stays valid until the
  /// next create_partition on the same tree.
  std::span<const IndexSpaceId> overlapping(IndexSpaceId is);

  // --- physical storage ---
  /// Raw bytes of `field` of the *root* of region `r`, laid out row-major
  /// over the root index space's bounding rect.
  std::byte* field_data(RegionId r, FieldId f);
  const std::byte* field_data(RegionId r, FieldId f) const;
  /// Bounding rect used for storage linearization of r's tree root.
  const Rect& storage_bounds(RegionId r) const;
  /// `fields` of r's root storage, resolved in argument order. Interned
  /// once per (root region, field list), so every view of one root with
  /// the same field list shares one span, which stays valid and unchanged
  /// for the forest's lifetime. Interning is a mutation: call it from the
  /// thread that creates regions, like the create_* calls. Throws
  /// RuntimeError, interning nothing, when `fields` names a field twice or
  /// a field r's field space lacks.
  std::span<const ResolvedField> resolve_fields(RegionId r,
                                                const std::vector<FieldId>& fields);
  /// Field lists interned by resolve_fields, over every root.
  std::size_t field_list_count() const;

  std::size_t index_space_count() const { return index_spaces_.size(); }
  std::size_t field_space_count() const { return field_spaces_.size(); }
  std::size_t region_count() const { return regions_.size(); }
  std::size_t partition_count() const { return partitions_.size(); }

  // --- setup journal ---
  /// Every construction call recorded in order (subspace index spaces
  /// created inside create_partition are folded into its kPartition op).
  const std::vector<SetupOp>& setup_journal() const { return journal_; }
  /// Replay a journal into this (empty) forest, reproducing the recording
  /// forest's handles exactly.
  void replay_setup(const std::vector<SetupOp>& ops);

 private:
  struct PartitionNode {
    IndexSpaceId parent;
    Rect color_space;
    std::vector<IndexSpaceId> subspaces;  // row-major by color
    bool disjoint = false;
    uint32_t tree_id = 0;  // tree of the parent index space (0 = unattached)
  };

  struct FieldListHash {
    std::size_t operator()(const std::vector<FieldId>& fields) const;
  };

  /// An index space's place in the overlap index.
  struct IndexSpaceOverlaps {
    uint32_t tree = 0;  // id of its index-space tree's root
    bool listed = false;
    std::vector<IndexSpaceId> overlapping;  // valid while `listed`
  };

  /// The overlap index of one index-space tree.
  struct OverlapTree {
    std::vector<IndexSpaceId> members;  // the root, then subspaces by creation
    std::vector<IndexSpaceId> listed;   // members whose list is computed
    RectBVH bvh;                        // over members' bounds, valid while `built`
    bool built = false;
  };

  /// The overlap index of the tree rooted at `root`, made on first use.
  OverlapTree& overlap_tree(uint32_t root);

  struct RootStorage {
    Rect bounds;  // bounding rect of the root index space
    std::unordered_map<FieldId, std::vector<std::byte>> data;
    /// resolve_fields results, one per distinct field list. Rehashing
    /// never moves a map node, so a resolved list a view spans stays put.
    std::unordered_map<std::vector<FieldId>, std::vector<ResolvedField>, FieldListHash>
        resolved;
  };

  // Deques, not vectors: PhysicalRegion and the dependence trackers hold
  // pointers/references to Domain and RegionInfo elements across later
  // create_* calls (including subregion materialization on the issue path),
  // so element addresses must survive growth.
  std::deque<Domain> index_spaces_;
  std::deque<IndexSpaceOverlaps> ispace_overlaps_;  // parallel to index_spaces_
  std::unordered_map<uint32_t, OverlapTree> overlap_trees_;  // by tree root id
  std::vector<std::vector<FieldInfo>> field_spaces_;
  std::deque<PartitionNode> partitions_;
  std::deque<RegionInfo> regions_;
  std::vector<std::unique_ptr<RootStorage>> storage_;  // by root region id
  std::unordered_map<uint64_t, RegionId> subregion_cache_;
  std::unordered_map<uint64_t, std::vector<RegionId>> subregion_tables_;
  uint32_t next_tree_id_ = 1;
  std::vector<SetupOp> journal_;
  bool journal_suspended_ = false;  // while create_partition makes subspaces
};

}  // namespace idxl
