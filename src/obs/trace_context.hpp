#pragma once

#include <cstdint>

namespace idxl::obs {

/// Compact causal context carried on wire messages (launch descriptors,
/// kRegionData, TaskDone) so a span recorded on one rank can name
/// the span that caused it on another. Control replication keeps launch
/// ids and task sequence numbers identical on every rank, so (origin,
/// span-seq) is enough to find the parent in the origin rank's trace.
struct TraceContext {
  static constexpr uint64_t kNone = UINT64_MAX;
  static constexpr uint32_t kNoRank = UINT32_MAX;

  uint64_t launch = kNone;  ///< launch id on the origin rank's stream
  uint64_t span = kNone;    ///< parent span's task sequence number
  uint32_t origin = kNoRank;  ///< rank whose trace holds the parent span

  bool valid() const { return origin != kNoRank; }

  friend bool operator==(const TraceContext& a, const TraceContext& b) {
    return a.launch == b.launch && a.span == b.span && a.origin == b.origin;
  }
};

}  // namespace idxl::obs
