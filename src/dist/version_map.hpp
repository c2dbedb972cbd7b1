#pragma once

#include <cstdint>
#include <map>
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
class VersionMap {
 public:
  struct Entry {
    Rect rect;
    uint64_t version = 0;
    uint32_t owner = 0;
    uint64_t current = 0;  ///< bitmask of ranks holding this version
    RegionId producer;
  };

  explicit VersionMap(uint32_t nranks);

  /// Record that `owner` is about to produce a new version of `rect`; only
  /// `owner` will hold it (delta mode ships nothing on write).
  void note_write(RegionId root, FieldId field, const Rect& rect,
                  uint32_t owner, RegionId producer);

  /// Record a write whose bytes are broadcast to every rank (the full-block
  /// fallback for sparse write footprints and the star-hub baseline).
  void note_write_everywhere(RegionId root, FieldId field, const Rect& rect,
                             uint32_t owner, RegionId producer);

  /// Plan the transfers `dest` needs before reading `rect`, appending to
  /// `out`, and mark the shipped spans current at `dest`. Never yields a
  /// transfer with src == dest (an owner is always current).
  void plan_read(RegionId root, FieldId field, const Rect& rect,
                 uint32_t dest, std::vector<Transfer>& out);

  /// Entries currently tracked for (root, field) — tests only.
  const std::vector<Entry>& entries(RegionId root, FieldId field) const;

 private:
  void note(RegionId root, FieldId field, const Rect& rect, uint32_t owner,
            RegionId producer, uint64_t current);

  uint32_t nranks_;
  uint64_t all_mask_;
  uint64_t next_version_ = 0;
  std::map<std::pair<uint32_t, FieldId>, std::vector<Entry>> fields_;
};

}  // namespace idxl::dist
