#include "region/offset_index.hpp"

#include <algorithm>
#include <random>
#include <utility>

namespace idxl {

namespace {

/// murmur3's fmix64: a bijection on 64 bits with full avalanche.
uint64_t fmix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

uint64_t OffsetIndex::process_key() {
  static const uint64_t key = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd();
  }();
  return key;
}

OffsetIndex::OffsetIndex(std::span<const int64_t> offsets, uint64_t key) {
  if (offsets.empty()) return;
  int shift = 63;  // the smallest table of at least 2 slots per offset
  while ((std::size_t{1} << (64 - shift)) < 2 * offsets.size()) --shift;
  // A failed build re-keys and doubles the table; the ever sparser table
  // also ends the loop for any list.
  while (!build(offsets, key, shift)) {
    key = fmix64(key + 0x9E3779B97F4A7C15ull);
    --shift;
  }
}

bool OffsetIndex::build(std::span<const int64_t> offsets, uint64_t key, int shift) {
  slots_.assign(std::size_t{1} << (64 - shift), Slot{});
  key_ = key;
  shift_ = shift;
  mask_ = slots_.size() - 1;
  max_probe_ = 0;
  for (std::size_t r = 0; r < offsets.size(); ++r) {
    Slot cur{offsets[r], static_cast<int64_t>(r)};
    int dist = 0;  // slots `cur` sits past its home
    for (std::size_t i = home(cur.offset, key, shift);; i = (i + 1) & mask_, ++dist) {
      if (dist >= kMaxProbe) return false;
      Slot& s = slots_[i];
      if (s.offset < 0) {
        s = cur;
        max_probe_ = std::max(max_probe_, dist + 1);
        break;
      }
      // Robin Hood: the entry nearer its home yields the slot and moves on.
      const int s_dist = static_cast<int>((i - home(s.offset, key, shift)) & mask_);
      if (s_dist < dist) {
        std::swap(s, cur);
        max_probe_ = std::max(max_probe_, dist + 1);
        dist = s_dist;
      }
    }
  }
  return true;
}

}  // namespace idxl
