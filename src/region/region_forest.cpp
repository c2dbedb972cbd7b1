#include "region/region_forest.hpp"

#include <algorithm>

namespace idxl {

IndexSpaceId RegionForest::create_index_space(Domain domain) {
  if (!journal_suspended_) {
    SetupOp op;
    op.kind = SetupOp::Kind::kIndexSpace;
    op.domain = domain;
    journal_.push_back(std::move(op));
  }
  index_spaces_.push_back(std::move(domain));
  const auto id = static_cast<uint32_t>(index_spaces_.size() - 1);
  ispace_overlaps_.emplace_back().tree = id;  // a tree of its own
  return IndexSpaceId{id};
}

const Domain& RegionForest::domain(IndexSpaceId is) const {
  IDXL_ASSERT(is.valid() && is.id < index_spaces_.size());
  return index_spaces_[is.id];
}

FieldSpaceId RegionForest::create_field_space() {
  SetupOp op;
  op.kind = SetupOp::Kind::kFieldSpace;
  journal_.push_back(std::move(op));
  field_spaces_.emplace_back();
  return FieldSpaceId{static_cast<uint32_t>(field_spaces_.size() - 1)};
}

FieldId RegionForest::allocate_field(FieldSpaceId fs, std::size_t field_size,
                                     std::string name) {
  IDXL_ASSERT(fs.valid() && fs.id < field_spaces_.size());
  IDXL_REQUIRE(field_size > 0, "field size must be positive");
  auto& fields = field_spaces_[fs.id];
  const FieldId id = static_cast<FieldId>(fields.size());
  SetupOp op;
  op.kind = SetupOp::Kind::kField;
  op.a = fs.id;
  op.b = static_cast<uint32_t>(field_size);
  op.name = name;
  journal_.push_back(std::move(op));
  fields.push_back(FieldInfo{id, field_size, std::move(name)});
  return id;
}

const FieldInfo& RegionForest::field(FieldSpaceId fs, FieldId f) const {
  IDXL_ASSERT(fs.valid() && fs.id < field_spaces_.size());
  IDXL_REQUIRE(f < field_spaces_[fs.id].size(), "unknown field for the field space");
  return field_spaces_[fs.id][f];
}

const std::vector<FieldInfo>& RegionForest::fields(FieldSpaceId fs) const {
  IDXL_ASSERT(fs.valid() && fs.id < field_spaces_.size());
  return field_spaces_[fs.id];
}

PartitionId RegionForest::create_partition(IndexSpaceId parent, const Rect& color_space,
                                           std::vector<Domain> subspaces,
                                           Disjointness d) {
  IDXL_REQUIRE(!color_space.empty(), "partition color space must be non-empty");
  IDXL_REQUIRE(static_cast<int64_t>(subspaces.size()) == color_space.volume(),
               "one subspace required per color");
  const Domain& parent_dom = domain(parent);
  for (const Domain& sub : subspaces)
    IDXL_REQUIRE(parent_dom.contains_domain(sub),
                 "partition subspace escapes its parent index space");

  {
    SetupOp op;
    op.kind = SetupOp::Kind::kPartition;
    op.a = parent.id;
    op.color_space = color_space;
    op.subspaces = subspaces;
    op.disjointness = static_cast<uint8_t>(d);
    journal_.push_back(std::move(op));
  }

  PartitionNode node;
  node.parent = parent;
  node.color_space = color_space;
  node.subspaces.reserve(subspaces.size());
  journal_suspended_ = true;  // subspace index spaces ride in the op above
  for (Domain& sub : subspaces)
    node.subspaces.push_back(create_index_space(std::move(sub)));
  journal_suspended_ = false;

  // The subspaces join the parent's tree: that tree's overlap index goes
  // stale, every other tree's stays.
  const uint32_t tree = ispace_overlaps_[parent.id].tree;
  OverlapTree& index = overlap_tree(tree);
  for (IndexSpaceId sub : node.subspaces) {
    ispace_overlaps_[sub.id].tree = tree;
    index.members.push_back(sub);
  }
  index.built = false;
  for (IndexSpaceId is : index.listed) {
    ispace_overlaps_[is.id].listed = false;
    ispace_overlaps_[is.id].overlapping.clear();
  }
  index.listed.clear();

  partitions_.push_back(std::move(node));
  const PartitionId pid{static_cast<uint32_t>(partitions_.size() - 1)};

  switch (d) {
    case Disjointness::kDisjoint:
      partitions_[pid.id].disjoint = true;
#ifndef NDEBUG
      IDXL_ASSERT_MSG(verify_disjoint(pid),
                      "partition declared disjoint but subspaces overlap");
#endif
      break;
    case Disjointness::kAliased:
      partitions_[pid.id].disjoint = false;
      break;
    case Disjointness::kCompute:
      partitions_[pid.id].disjoint = verify_disjoint(pid);
      break;
  }
  return pid;
}

IndexSpaceId RegionForest::subspace(PartitionId p, const Point& color) const {
  IDXL_ASSERT(p.valid() && p.id < partitions_.size());
  const PartitionNode& node = partitions_[p.id];
  IDXL_REQUIRE(node.color_space.contains(color), "color outside partition color space");
  return node.subspaces[static_cast<std::size_t>(node.color_space.linearize(color))];
}

const Rect& RegionForest::color_space(PartitionId p) const {
  IDXL_ASSERT(p.valid() && p.id < partitions_.size());
  return partitions_[p.id].color_space;
}

IndexSpaceId RegionForest::partition_parent(PartitionId p) const {
  IDXL_ASSERT(p.valid() && p.id < partitions_.size());
  return partitions_[p.id].parent;
}

bool RegionForest::is_disjoint(PartitionId p) const {
  IDXL_ASSERT(p.valid() && p.id < partitions_.size());
  return partitions_[p.id].disjoint;
}

bool RegionForest::verify_disjoint(PartitionId p) const {
  const PartitionNode& node = partitions_[p.id];
  const std::size_t n = node.subspaces.size();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (!domain(node.subspaces[i]).disjoint_from(domain(node.subspaces[j])))
        return false;
  return true;
}

RegionId RegionForest::create_region(IndexSpaceId is, FieldSpaceId fs) {
  {
    SetupOp op;
    op.kind = SetupOp::Kind::kRegion;
    op.a = is.id;
    op.b = fs.id;
    journal_.push_back(std::move(op));
  }
  RegionInfo info;
  info.handle = RegionId{static_cast<uint32_t>(regions_.size())};
  info.root = info.handle;
  info.tree_id = next_tree_id_++;
  info.ispace = is;
  info.fspace = fs;
  regions_.push_back(info);

  auto store = std::make_unique<RootStorage>();
  store->bounds = domain(is).bounds();
  const auto vol = static_cast<std::size_t>(store->bounds.volume());
  for (const FieldInfo& f : fields(fs))
    store->data.emplace(f.id, std::vector<std::byte>(vol * f.size));
  storage_.resize(regions_.size());
  storage_[info.handle.id] = std::move(store);
  return info.handle;
}

RegionId RegionForest::subregion(RegionId parent, PartitionId p, const Point& color) {
  const RegionInfo& par = region(parent);
  const PartitionNode& node = partitions_[p.id];
  IDXL_REQUIRE(node.parent == par.ispace,
               "partition does not partition this region's index space");
  IDXL_REQUIRE(node.color_space.contains(color),
               "projection functor selected a color outside the partition");
  const uint64_t key = (uint64_t{parent.id} << 40) ^ (uint64_t{p.id} << 20) ^
                       static_cast<uint64_t>(node.color_space.linearize(color));
  if (auto it = subregion_cache_.find(key); it != subregion_cache_.end())
    return it->second;

  {
    SetupOp op;
    op.kind = SetupOp::Kind::kSubregion;
    op.a = parent.id;
    op.b = p.id;
    op.color = color;
    journal_.push_back(std::move(op));
  }

  RegionInfo info;
  info.handle = RegionId{static_cast<uint32_t>(regions_.size())};
  info.root = par.root;
  info.tree_id = par.tree_id;
  info.ispace = subspace(p, color);
  info.fspace = par.fspace;
  info.through = p;
  info.color = color;
  regions_.push_back(info);
  storage_.resize(regions_.size());  // subregions own no storage
  subregion_cache_.emplace(key, info.handle);
  return info.handle;
}

const std::vector<RegionId>& RegionForest::subregion_table(RegionId parent,
                                                           PartitionId p) {
  IDXL_ASSERT(p.valid() && p.id < partitions_.size());
  const uint64_t key = (uint64_t{parent.id} << 32) | p.id;
  if (auto it = subregion_tables_.find(key); it != subregion_tables_.end())
    return it->second;

  const Rect colors = partitions_[p.id].color_space;
  std::vector<RegionId> table;
  table.reserve(static_cast<std::size_t>(colors.volume()));
  for (const Point& color : colors) table.push_back(subregion(parent, p, color));
  return subregion_tables_.emplace(key, std::move(table)).first->second;
}

const RegionInfo& RegionForest::region(RegionId r) const {
  IDXL_ASSERT(r.valid() && r.id < regions_.size());
  return regions_[r.id];
}

bool RegionForest::regions_interfere(RegionId a, RegionId b) const {
  const RegionInfo& ra = region(a);
  const RegionInfo& rb = region(b);
  if (ra.tree_id != rb.tree_id) return false;
  return !domain(ra.ispace).disjoint_from(domain(rb.ispace));
}

bool RegionForest::partitions_independent(RegionId ra, PartitionId p, RegionId rb,
                                          PartitionId q) const {
  const RegionInfo& a = region(ra);
  const RegionInfo& b = region(rb);
  if (a.tree_id != b.tree_id) return true;
  IDXL_ASSERT(p.valid() && q.valid());
  const Domain& pd = domain(partitions_[p.id].parent);
  const Domain& qd = domain(partitions_[q.id].parent);
  return pd.disjoint_from(qd);
}

RegionForest::OverlapTree& RegionForest::overlap_tree(uint32_t root) {
  auto [it, made] = overlap_trees_.try_emplace(root);
  if (made) it->second.members.push_back(IndexSpaceId{root});
  return it->second;
}

std::span<const IndexSpaceId> RegionForest::overlapping(IndexSpaceId is) {
  IDXL_ASSERT(is.valid() && is.id < index_spaces_.size());
  IndexSpaceOverlaps& mine = ispace_overlaps_[is.id];
  if (mine.listed) return mine.overlapping;
  OverlapTree& index = overlap_tree(mine.tree);
  const Rect& bounds = index_spaces_[is.id].bounds();
  if (!bounds.empty()) {  // an empty rect overlaps nothing
    if (!index.built) {
      std::vector<std::pair<Rect, uint32_t>> items;
      items.reserve(index.members.size());
      for (IndexSpaceId m : index.members)
        if (!index_spaces_[m.id].bounds().empty())
          items.emplace_back(index_spaces_[m.id].bounds(), m.id);
      index.bvh.build(std::move(items));
      index.built = true;
    }
    index.bvh.query(bounds, [&](uint32_t id) { mine.overlapping.push_back(IndexSpaceId{id}); });
    std::sort(mine.overlapping.begin(), mine.overlapping.end(),
              [](IndexSpaceId a, IndexSpaceId b) { return a.id < b.id; });
  }
  mine.listed = true;
  index.listed.push_back(is);
  return mine.overlapping;
}

std::byte* RegionForest::field_data(RegionId r, FieldId f) {
  const RegionInfo& info = region(r);
  auto& store = storage_[info.root.id];
  IDXL_ASSERT(store != nullptr);
  auto it = store->data.find(f);
  IDXL_REQUIRE(it != store->data.end(), "unknown field for region");
  return it->second.data();
}

const std::byte* RegionForest::field_data(RegionId r, FieldId f) const {
  const RegionInfo& info = region(r);
  const auto& store = storage_[info.root.id];
  IDXL_ASSERT(store != nullptr);
  auto it = store->data.find(f);
  IDXL_REQUIRE(it != store->data.end(), "unknown field for region");
  return it->second.data();
}

void RegionForest::replay_setup(const std::vector<SetupOp>& ops) {
  IDXL_REQUIRE(index_spaces_.empty() && field_spaces_.empty() &&
                   partitions_.empty() && regions_.empty(),
               "replay_setup requires an empty forest");
  for (const SetupOp& op : ops) {
    switch (op.kind) {
      case SetupOp::Kind::kIndexSpace:
        create_index_space(op.domain);
        break;
      case SetupOp::Kind::kFieldSpace:
        create_field_space();
        break;
      case SetupOp::Kind::kField:
        allocate_field(FieldSpaceId{op.a}, op.b, op.name);
        break;
      case SetupOp::Kind::kPartition:
        create_partition(IndexSpaceId{op.a}, op.color_space, op.subspaces,
                         static_cast<Disjointness>(op.disjointness));
        break;
      case SetupOp::Kind::kRegion:
        create_region(IndexSpaceId{op.a}, FieldSpaceId{op.b});
        break;
      case SetupOp::Kind::kSubregion:
        subregion(RegionId{op.a}, PartitionId{op.b}, op.color);
        break;
    }
  }
}

std::size_t RegionForest::FieldListHash::operator()(
    const std::vector<FieldId>& fields) const {
  std::size_t h = fields.size();
  for (FieldId f : fields) h = h * 1000003 ^ f;
  return h;
}

std::span<const ResolvedField> RegionForest::resolve_fields(
    RegionId r, const std::vector<FieldId>& fields) {
  const RegionInfo& info = region(r);
  auto& interned = storage_[info.root.id]->resolved;
  if (auto it = interned.find(fields); it != interned.end()) return it->second;
  for (std::size_t i = 1; i < fields.size(); ++i)
    IDXL_REQUIRE(std::find(fields.begin(), fields.begin() + i, fields[i]) ==
                     fields.begin() + i,
                 "region argument names a field twice");
  std::vector<ResolvedField> resolved;
  resolved.reserve(fields.size());
  for (FieldId f : fields)
    resolved.push_back(ResolvedField{f, field_data(r, f), field(info.fspace, f).size});
  return interned.emplace(fields, std::move(resolved)).first->second;
}

std::size_t RegionForest::field_list_count() const {
  std::size_t n = 0;
  for (const auto& store : storage_)
    if (store != nullptr) n += store->resolved.size();
  return n;
}

const Rect& RegionForest::storage_bounds(RegionId r) const {
  const RegionInfo& info = region(r);
  const auto& store = storage_[info.root.id];
  IDXL_ASSERT(store != nullptr);
  return store->bounds;
}

}  // namespace idxl
