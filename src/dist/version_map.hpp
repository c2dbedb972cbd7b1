#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "region/point.hpp"
#include "region/region_forest.hpp"

namespace idxl::dist {

/// One planned delta transfer: rank `src` holds version `version` of
/// `rect` × `field` of some root region and must push it to rank `dest`,
/// which reads it. `producer` names the subregion whose write created the
/// entry — the region argument the transfer task attaches, so the dependence
/// tracker orders it after the producing task and before the consuming one.
struct Transfer {
  uint32_t src = 0;
  uint32_t dest = 0;
  uint64_t version = 0;
  RegionId producer;
  FieldId field = 0;
  Rect rect;
};

/// Coherence map of the delta data plane, one per rank (dist::Replica):
/// for every (root region, field) it remembers which rank produced the
/// current version of each sub-rectangle and which ranks already hold a
/// current copy. `plan_read` then yields exactly the stale sub-rectangles a
/// consumer needs — halo strips for stencil-style footprints — and nothing
/// when the reader's copy is already current. Every rank applies the same
/// calls in the same order, so every rank's map, and plan, is the same.
///
/// Space not covered by any entry is version 0: the bootstrap state every
/// rank received at setup, current everywhere by construction. Entries are
/// kept disjoint via rectangle subtraction on overlap, so the map is a
/// partition of the written footprint, not a log. Updates split and replace
/// entries in place; the order of a field's entries is unspecified.
///
/// A field's entries sit in buckets keyed by the index space of their
/// producer subregion, and an entry's rect always lies inside its
/// producer's bounds (a write records the producer's bounds or one of its
/// points; a split keeps the producer). So a call touching a rect inside
/// region R's bounds visits only the buckets of the index spaces the
/// forest's overlap index lists for R's (RegionForest::overlapping), not
/// every entry of the field. Like that index, the map is used only from
/// the issuing thread.
class VersionMap {
 public:
  struct Entry {
    Rect rect;
    uint64_t version = 0;
    uint32_t owner = 0;
    uint64_t current = 0;  ///< bitmask of ranks holding this version
    RegionId producer;
  };

  /// A map of `nranks` ranks over the regions of `forest`, which must
  /// outlive it.
  VersionMap(uint32_t nranks, RegionForest& forest);

  /// Record that `owner` is about to produce, through subregion `producer`,
  /// a new version of `rect` (inside producer's bounds); only `owner` will
  /// hold it (delta mode ships nothing on write).
  void note_write(RegionId producer, FieldId field, const Rect& rect, uint32_t owner);

  /// Record a write whose bytes are broadcast to every rank (the full-block
  /// fallback for sparse write footprints and the star-hub baseline).
  void note_write_everywhere(RegionId producer, FieldId field, const Rect& rect,
                             uint32_t owner);

  /// Plan the transfers `dest` needs before reading the bounds of `region`,
  /// appending to `out`, and mark the shipped spans current at `dest`.
  /// Never yields a transfer with src == dest (an owner is always current).
  void plan_read(RegionId region, FieldId field, uint32_t dest,
                 std::vector<Transfer>& out);

  /// Entries currently tracked for (root, field), over every bucket — tests
  /// only.
  std::vector<Entry> entries(RegionId root, FieldId field) const;

 private:
  /// One (root, field)'s entries, by producer index space id.
  using Buckets = std::unordered_map<uint32_t, std::vector<Entry>>;

  void note(RegionId producer, FieldId field, const Rect& rect, uint32_t owner,
            uint64_t current);

  uint32_t nranks_;
  uint64_t all_mask_;
  RegionForest* forest_;
  uint64_t next_version_ = 0;
  std::map<std::pair<uint32_t, FieldId>, Buckets> fields_;
};

}  // namespace idxl::dist
