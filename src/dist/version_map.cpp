#include "dist/version_map.hpp"

#include "support/error.hpp"

namespace idxl::dist {

namespace {

/// Call `fn` on each of the up-to-2·dim rectangles of `a` \ `b` (slab
/// decomposition). Precondition: a and b overlap.
template <typename Fn>
void for_each_piece(const Rect& a, const Rect& b, Fn&& fn) {
  Rect rem = a;
  for (int d = 0; d < a.dim(); ++d) {
    if (rem.lo[d] < b.lo[d]) {
      Rect piece = rem;
      piece.hi[d] = b.lo[d] - 1;
      fn(piece);
      rem.lo[d] = b.lo[d];
    }
    if (rem.hi[d] > b.hi[d]) {
      Rect piece = rem;
      piece.lo[d] = b.hi[d] + 1;
      fn(piece);
      rem.hi[d] = b.hi[d];
    }
  }
}

/// Cut `rect` out of `entries`, splitting and dropping in place. Entries
/// [0, n) are the ones to visit. An entry keeps its first remainder piece
/// and appends the others past n (they miss `rect`); an entry `rect` covers
/// is replaced by the last unvisited one.
void subtract(std::vector<VersionMap::Entry>& entries, const Rect& rect) {
  std::size_t n = entries.size();
  for (std::size_t i = 0; i < n;) {
    if (!entries[i].rect.overlaps(rect)) {
      ++i;
      continue;
    }
    const VersionMap::Entry old = entries[i];
    bool kept = false;
    for_each_piece(old.rect, rect, [&](const Rect& piece) {
      if (!kept) {
        entries[i].rect = piece;
        kept = true;
      } else {
        entries.push_back(old);
        entries.back().rect = piece;
      }
    });
    if (kept) {
      ++i;
      continue;
    }
    entries[i] = entries[--n];
    entries[n] = entries.back();
    entries.pop_back();
  }
}

/// Plan `dest`'s read of `rect` from `entries`, appending to `out`.
/// Split pieces are appended and stay stale at dest: only [0, n) is read.
void plan(std::vector<VersionMap::Entry>& entries, FieldId field, const Rect& rect,
          uint32_t dest, std::vector<Transfer>& out) {
  const uint64_t bit = uint64_t{1} << dest;
  const std::size_t n = entries.size();
  for (std::size_t i = 0; i < n; ++i) {
    if ((entries[i].current & bit) != 0) continue;
    const Rect ov = entries[i].rect.intersection(rect);
    if (ov.empty()) continue;
    IDXL_ASSERT(entries[i].owner != dest);
    out.push_back(Transfer{entries[i].owner, dest, entries[i].version,
                           entries[i].producer, field, ov});
    // Split the entry: only the shipped overlap becomes current at dest.
    const VersionMap::Entry old = entries[i];
    for_each_piece(old.rect, ov, [&](const Rect& piece) {
      entries.push_back(old);
      entries.back().rect = piece;
    });
    entries[i].rect = ov;
    entries[i].current |= bit;
  }
}

}  // namespace

VersionMap::VersionMap(uint32_t nranks, RegionForest& forest)
    : nranks_(nranks), forest_(&forest) {
  IDXL_REQUIRE(nranks >= 1 && nranks <= 64,
               "delta transfers track rank currency in a 64-bit mask");
  all_mask_ = nranks == 64 ? ~uint64_t{0} : (uint64_t{1} << nranks) - 1;
}

void VersionMap::note(RegionId producer, FieldId field, const Rect& rect,
                      uint32_t owner, uint64_t current) {
  if (rect.empty()) return;
  const RegionInfo& info = forest_->region(producer);
  // The bucket invariant: every entry lies inside its producer's bounds.
  IDXL_ASSERT(forest_->domain(info.ispace).bounds().contains(rect));
  Buckets& buckets = fields_[{info.root.id, field}];
  // An entry `rect` overlaps lies inside bounds that overlap the producer's.
  for (IndexSpaceId is : forest_->overlapping(info.ispace))
    if (const auto it = buckets.find(is.id); it != buckets.end()) subtract(it->second, rect);
  buckets[info.ispace.id].push_back(Entry{rect, ++next_version_, owner, current, producer});
}

void VersionMap::note_write(RegionId producer, FieldId field, const Rect& rect,
                            uint32_t owner) {
  note(producer, field, rect, owner, uint64_t{1} << owner);
}

void VersionMap::note_write_everywhere(RegionId producer, FieldId field,
                                       const Rect& rect, uint32_t owner) {
  note(producer, field, rect, owner, all_mask_);
}

void VersionMap::plan_read(RegionId region, FieldId field, uint32_t dest,
                           std::vector<Transfer>& out) {
  const RegionInfo& info = forest_->region(region);
  const Rect& rect = forest_->domain(info.ispace).bounds();
  if (rect.empty()) return;
  const auto it = fields_.find({info.root.id, field});
  if (it == fields_.end()) return;  // version 0 everywhere: current
  for (IndexSpaceId is : forest_->overlapping(info.ispace))
    if (const auto b = it->second.find(is.id); b != it->second.end())
      plan(b->second, field, rect, dest, out);
}

std::vector<VersionMap::Entry> VersionMap::entries(RegionId root, FieldId field) const {
  std::vector<Entry> all;
  if (const auto it = fields_.find({root.id, field}); it != fields_.end())
    for (const auto& [is, bucket] : it->second) all.insert(all.end(), bucket.begin(), bucket.end());
  return all;
}

}  // namespace idxl::dist
