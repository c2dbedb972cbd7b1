#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/watchdog.hpp"

namespace idxl::obs {

/// One rank's contribution to the merged cluster trace: its event log's
/// spans and name table, issue-order task graph and lifecycle tail, and
/// the clock alignment the driver estimated for it.
struct RankTrace {
  uint32_t rank = 0;
  /// This rank's steady clock minus the driver's, estimated from the
  /// heartbeat ping-pong probes (0 for the driver itself). Subtracting it
  /// maps the rank's timestamps onto the driver's timeline.
  int64_t clock_offset_ns = 0;
  /// Smoothed probe round-trip time; the offset estimate is correct to
  /// within ±rtt/2 (midpoint method error bound).
  uint64_t rtt_ns = 0;
  /// Event-log epoch on the rank's own steady clock (absolute ns).
  uint64_t epoch_ns = 0;
  std::vector<std::string> names;   ///< event-log intern table, by name id
  std::vector<ProfileEvent> spans;
  std::vector<TaskSample> samples;  ///< issue-order task graph (seq + deps)
  std::vector<Event> recent;        ///< lifecycle tail
};

/// A span claiming a cross-rank parent that the origin rank's trace does
/// not contain. An intact trace has none; any entry means a transfer
/// arrived whose producing span was never recorded (lost context).
struct OrphanSpan {
  uint32_t rank = 0;  ///< rank that recorded the orphaned span
  uint64_t seq = ProfileEvent::kNoSeq;
  uint64_t parent = ProfileEvent::kNoSeq;
  uint32_t origin = ProfileEvent::kNoRank;
};

/// The whole cluster's execution history, pulled to the driver at shutdown
/// (kTelemetry) and merged onto one timeline. Each rank becomes a Chrome
/// trace process lane; kRegionData transfers become flow events from the
/// producing task's span on the source rank to the apply span on the
/// destination rank.
struct ClusterTrace {
  std::vector<RankTrace> ranks;

  /// Spans whose cross-rank parent is missing (empty on an intact trace).
  std::vector<OrphanSpan> orphans() const;
  /// Remote-parented spans whose parent was found — the number of flow
  /// edges the Chrome export will draw.
  std::size_t transfer_edges() const;
  /// Critical path of the union task graph: dependence edges are unioned
  /// across ranks (control replication records them everywhere), durations
  /// come from the rank that actually executed each task.
  CriticalPathReport critical_path() const;

  /// Merged Chrome trace-event JSON: pid = rank, per-rank thread lanes,
  /// timestamps clock-aligned to the driver's timeline, flow events for
  /// every resolved transfer edge, and a cluster-critical-path instant
  /// event carrying the path summary.
  std::string chrome_trace_json() const;
  void write_chrome_trace(const std::string& path) const;
};

/// One rank's stall evidence for the distributed watchdog merge.
struct RankStall {
  uint32_t rank = 0;
  StallReport report;
  /// Task seqs this rank is waiting to receive from other ranks (its
  /// pending externals) — the complement identifies the blocking rank.
  std::vector<uint64_t> pending_externals;
};

/// Merge every rank's stall report into one dump that names the blocking
/// task and the rank executing it: the head of the merged waits-for graph
/// is the lowest waited-on seq that is not itself blocked, and the rank
/// that does NOT list it as a pending external is the one that owes the
/// cluster its TaskDone.
std::string merged_stall_dump(const std::vector<RankStall>& ranks);

}  // namespace idxl::obs
