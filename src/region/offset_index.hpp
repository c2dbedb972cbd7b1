#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace idxl {

/// The lookup table of a sparse Domain: an open-addressing map from a
/// point's row-major offset inside the domain's bounding box to its rank in
/// the sorted point list. It holds 2 to 4 slots of 16 bytes per point (more
/// only after a rebuild, below), so its memory follows the point count and
/// never the box.
///
/// Robin Hood linear probing under a keyed hash (home(), below). Every build
/// measures its longest probe, and a build whose longest probe would pass
/// kMaxProbe slots starts over under a new key with twice the slots. A
/// lookup therefore reads at most kMaxProbe slots, whatever the point list,
/// including one chosen to collide. The first key is a per-process secret,
/// so a list sent over the wire cannot be aimed at it; a retry is then a
/// rare event, not a cost a client can force.
class OffsetIndex {
 public:
  /// Most slots any lookup reads (Robin Hood at load <= 1/2 keeps the
  /// longest probe near 10 even at millions of points).
  static constexpr int kMaxProbe = 32;

  OffsetIndex() = default;

  /// Index `offsets`, which must be distinct and non-negative; offsets[r]
  /// gets rank r. Hashes under `key` first, then under keys derived from it.
  explicit OffsetIndex(std::span<const int64_t> offsets, uint64_t key = process_key());

  /// Rank of `offset`, or -1 when no point has it (so for every negative
  /// offset).
  int64_t find(int64_t offset) const {
    std::size_t i = home(offset, key_, shift_);
    for (int probe = 0; probe < max_probe_; ++probe, i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.offset == offset) return s.rank;
      if (s.offset < 0) return -1;
    }
    return -1;
  }

  /// Slots the longest lookup of this table reads (at most kMaxProbe), and
  /// slots in the table.
  int max_probe() const { return max_probe_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Home slot of `offset` in a table of 2^(64 - shift) slots under `key`:
  /// Fibonacci hashing of offset ^ key, one multiply. XOR with a key maps an
  /// aligned block of offsets onto another, and the golden-ratio multiplier
  /// spaces a block's slots nearly evenly, so a run of owned points spreads
  /// out. It is not a strong mixer; the probe check after each build is what
  /// bounds the worst case.
  static std::size_t home(int64_t offset, uint64_t key, int shift) {
    return static_cast<std::size_t>(
        ((static_cast<uint64_t>(offset) ^ key) * 0x9E3779B97F4A7C15ull) >> shift);
  }

  /// The first key of every build in this process, drawn once from
  /// std::random_device.
  static uint64_t process_key();

 private:
  struct Slot {
    int64_t offset = -1;  // -1: empty
    int64_t rank = -1;
  };

  /// Place every offset in a table of 2^(64 - shift) slots under `key`;
  /// false if some probe would pass kMaxProbe slots.
  bool build(std::span<const int64_t> offsets, uint64_t key, int shift);

  std::vector<Slot> slots_;
  uint64_t key_ = 0;
  int shift_ = 63;
  std::size_t mask_ = 0;
  int max_probe_ = 0;  // 0 for an empty table: find reads nothing
};

}  // namespace idxl
