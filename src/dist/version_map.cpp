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

}  // namespace

VersionMap::VersionMap(uint32_t nranks) : nranks_(nranks) {
  IDXL_REQUIRE(nranks >= 1 && nranks <= 64,
               "delta transfers track rank currency in a 64-bit mask");
  all_mask_ = nranks == 64 ? ~uint64_t{0} : (uint64_t{1} << nranks) - 1;
}

void VersionMap::note(RegionId root, FieldId field, const Rect& rect,
                      uint32_t owner, RegionId producer, uint64_t current) {
  if (rect.empty()) return;
  std::vector<Entry>& entries = fields_[{root.id, field}];
  // Entries [0, n) are the ones to visit. An entry keeps its first
  // remainder piece and appends the others past n (they miss `rect`); an
  // entry `rect` covers is replaced by the last unvisited one.
  std::size_t n = entries.size();
  for (std::size_t i = 0; i < n;) {
    if (!entries[i].rect.overlaps(rect)) {
      ++i;
      continue;
    }
    const Entry old = entries[i];
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
  entries.push_back(Entry{rect, ++next_version_, owner, current, producer});
}

void VersionMap::note_write(RegionId root, FieldId field, const Rect& rect,
                            uint32_t owner, RegionId producer) {
  note(root, field, rect, owner, producer, uint64_t{1} << owner);
}

void VersionMap::note_write_everywhere(RegionId root, FieldId field,
                                       const Rect& rect, uint32_t owner,
                                       RegionId producer) {
  note(root, field, rect, owner, producer, all_mask_);
}

void VersionMap::plan_read(RegionId root, FieldId field, const Rect& rect,
                           uint32_t dest, std::vector<Transfer>& out) {
  if (rect.empty()) return;
  const auto it = fields_.find({root.id, field});
  if (it == fields_.end()) return;  // version 0 everywhere: current
  const uint64_t bit = uint64_t{1} << dest;
  std::vector<Entry>& entries = it->second;
  // Split pieces are appended and stay stale at dest: only [0, n) is read.
  const std::size_t n = entries.size();
  for (std::size_t i = 0; i < n; ++i) {
    if ((entries[i].current & bit) != 0) continue;
    const Rect ov = entries[i].rect.intersection(rect);
    if (ov.empty()) continue;
    IDXL_ASSERT(entries[i].owner != dest);
    out.push_back(Transfer{entries[i].owner, dest, entries[i].version,
                           entries[i].producer, field, ov});
    // Split the entry: only the shipped overlap becomes current at dest.
    const Entry old = entries[i];
    for_each_piece(old.rect, ov, [&](const Rect& piece) {
      entries.push_back(old);
      entries.back().rect = piece;
    });
    entries[i].rect = ov;
    entries[i].current |= bit;
  }
}

const std::vector<VersionMap::Entry>& VersionMap::entries(RegionId root,
                                                          FieldId field) const {
  static const std::vector<Entry> kNone;
  const auto it = fields_.find({root.id, field});
  return it == fields_.end() ? kNone : it->second;
}

}  // namespace idxl::dist
