#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <variant>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_context.hpp"
#include "obs/trace_merge.hpp"
#include "region/region_forest.hpp"
#include "runtime/fault.hpp"
#include "runtime/physical.hpp"
#include "runtime/serialize.hpp"
#include "runtime/task_graph.hpp"

namespace idxl::dist {

/// Steady-clock nanoseconds; stamps RegionData::sent_ns (same-host latency).
uint64_t steady_now_ns();

/// Delta mode ships written bytes only for footprints every rank's version
/// map can mirror: dense write domains. A sparse write domain makes the
/// whole task fall back to a full-block broadcast outcome. This must compute
/// identically on the owning rank (from the mapped regions) and in every
/// rank's planner (from the forest), or currency tracking diverges.
inline bool full_outcome_footprint(Privilege priv, const Domain& domain) {
  return privilege_writes(priv) && !domain.dense();
}

inline bool needs_full_outcome(const TaskContext& ctx) {
  for (const PhysicalRegion& pr : ctx.regions)
    if (full_outcome_footprint(pr.privilege(), pr.domain())) return true;
  return false;
}

/// Launches whose every point ships a full-block outcome on the delta plane:
/// those whose points alias across ranks (Replica::execute_index). The
/// issuing thread marks a launch before issuing it; success hooks on pool
/// threads look it up. Cleared at fences, when no task of a marked launch is
/// still running.
class FullOutcomeLaunches {
 public:
  void mark(uint64_t launch) {
    std::lock_guard<std::mutex> lock(mu_);
    ids_.insert(launch);
  }
  bool contains(uint64_t launch) const {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_.count(launch) != 0;
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    ids_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::unordered_set<uint64_t> ids_;
};

/// Protocol messages of the distributed runtime, carried as the `type` byte
/// of a net frame (src/net/frame.hpp). Control replication keeps the
/// vocabulary small: the driver broadcasts the launch stream verbatim and
/// the only data that crosses per task is its terminal outcome, one slice
/// per owning rank of a launch.
enum class Msg : uint8_t {
  kHello = 1,   ///< driver -> worker: rank assignment + run parameters
  kHelloAck,    ///< worker -> driver: handshake complete
  kSetup,       ///< driver -> worker (exec mode): forest journal + task names
  kLaunch,      ///< driver -> worker: one serialized IndexLauncher
  kSingle,      ///< driver -> worker: one serialized TaskLauncher
  kTaskDone,    ///< owner -> everyone (via driver): a slice's outcomes (v8)
  kFence,       ///< driver -> worker: quiesce and report
  kFenceAck,    ///< worker -> driver: fence id, FaultReport, metrics if asked
  kShutdown,    ///< driver -> worker: drain and exit
  kBye,         ///< worker -> driver: teardown complete
  kPing,          ///< heartbeat + clock probe, either direction (net/clock.hpp)
  kRecall,        ///< driver -> worker: plan the recall to rank 0 (v6)
  kRegionData,    ///< src rank -> dest rank, direct or driver-relayed (v3)
  kTelemetryReq,  ///< driver -> worker: ship your trace (v4)
  kTelemetry,     ///< worker -> driver: its trace, or its stall report (v7)
};

/// Metric-label name per message type (NetObs::type_name).
const char* msg_name(uint8_t type);

// --- payload codecs ------------------------------------------------------

struct Hello {
  uint32_t rank = 0;
  uint32_t nranks = 0;
  uint32_t workers = 0;           ///< local thread-pool width per process
  uint32_t heartbeat_period_ms = 1000;
  uint32_t peer_stall_window_ms = 10000;
  uint8_t delta_transfers = 1;    ///< 0 = star-hub full-block baseline
  uint8_t enable_profiling = 0;   ///< record spans for the cluster trace (v4)
  std::string fault_plan;         ///< FaultPlan::to_string spec; "" = none
};
std::vector<std::byte> encode_hello(const Hello& h);
Hello decode_hello(const std::vector<std::byte>& bytes);

/// Exec-mode bootstrap: everything a fresh process needs to mirror the
/// driver's pre-launch state — the forest construction journal, the task
/// names in registration order (resolved against the worker's named task
/// registry), and the current root-region storage bytes.
struct Setup {
  std::vector<SetupOp> journal;
  std::vector<std::string> tasks;
  /// (root region id, field id, bytes) triples.
  struct Storage {
    uint32_t region = 0;
    FieldId field = 0;
    std::vector<std::byte> bytes;
  };
  std::vector<Storage> storage;
};
std::vector<std::byte> encode_setup(const Setup& s);
Setup decode_setup(const std::vector<std::byte>& bytes);

/// A `task-done` frame: the terminal outcomes of a slice, a run of
/// consecutive tasks one rank owns, broadcast so every other rank can
/// complete its external placeholder nodes. A sliced index launch sends one
/// per owning rank, naming the rank's block of the launch (owner_of gives
/// each rank one run of linear indices, so one run of seqs), once every
/// task of it has settled. Every other outcome is a slice of one. A slice
/// lists only what differs between its tasks: the faults, and the return
/// values when the launch folds a Future (the slice of one of a success
/// always carries its return value). Every task it names without a fault
/// completed.
struct TaskDone {
  /// data_dest value meaning "no separate data message for this outcome".
  static constexpr uint32_t kNoDest = UINT32_MAX;

  /// A task of the slice that settled in a fault state.
  struct Fault {
    uint32_t index = 0;  ///< position in the slice: seq - first
    FaultKind kind = FaultKind::kNone;
    uint64_t root = UINT64_MAX;
    uint32_t attempts = 0;
    std::string message;
  };

  uint64_t first = 0;  ///< seq of the slice's first task
  uint32_t count = 1;  ///< the slice names seqs [first, first + count)
  /// Rank receiving the slice's bytes via kRegionData (a transfer task's
  /// slice of one); the driver excludes it from the relay.
  uint32_t data_dest = kNoDest;
  /// Causal parent of the external completions: the executing rank and the
  /// launch id there (span = first; replication makes it global).
  obs::TraceContext ctx;
  std::vector<Fault> faults;  ///< ascending index
  std::vector<double> rets;   ///< empty, or one return value per task
  /// A slice of one only: star-hub and full outcomes carry the task's
  /// written-region bytes (copy_out order); delta-plane outcomes are slim.
  bool has_data = false;
  std::vector<std::byte> region_bytes;

  /// The outcome of the task at `index`, given the slice's fault at or
  /// after `*fault` (a cursor: a receiver walks the slice in order).
  RemoteOutcome outcome(uint32_t index, std::size_t* fault);
};
std::vector<std::byte> encode_task_done(const TaskDone& t);
TaskDone decode_task_done(const std::vector<std::byte>& bytes);

/// Delta payload: the patches completing external node `seq` on rank
/// `dest`. Travels src -> dest on a direct worker link when one is up,
/// src -> driver -> dest otherwise (dest 0 terminates at the driver).
struct RegionData {
  uint64_t seq = 0;
  uint32_t dest = 0;
  uint64_t sent_ns = 0;  ///< sender steady-clock; same-host latency probe
  /// Causal parent: the producing transfer task's span on the sending rank
  /// (span = seq — replicated — so origin + seq finds it in the merge).
  obs::TraceContext ctx;
  std::vector<RegionPatch> patches;
};
std::vector<std::byte> encode_region_data(const RegionData& r);
RegionData decode_region_data(const std::vector<std::byte>& bytes);

struct Fence {
  uint64_t id = 0;
  /// Ask for the worker's metrics snapshot in the ack: only the driver's
  /// cluster views (cluster_metrics, data_plane_stats) read it.
  bool metrics = false;
};
struct FenceAck {
  uint64_t fence = 0;
  FaultReport report;
  /// Serialized MetricsSnapshot of the worker's registry when the fence
  /// asked for it (every per-rank counter, the data-plane bytes and
  /// transfers included), else empty.
  std::vector<std::byte> metrics;
};
std::vector<std::byte> encode_fence(const Fence& f);
Fence decode_fence(const std::vector<std::byte>& bytes);
std::vector<std::byte> encode_fence_ack(const FenceAck& a);
FenceAck decode_fence_ack(const std::vector<std::byte>& bytes);

/// MetricsSnapshot codec, reused by FenceAck piggybacking and kTelemetry.
std::vector<std::byte> serialize_metrics_snapshot(const obs::MetricsSnapshot& m);
obs::MetricsSnapshot deserialize_metrics_snapshot(
    const std::vector<std::byte>& bytes);

/// kTelemetry payloads carry the types the driver's merges consume, tagged
/// by a flavor byte: a rank's obs::RankTrace answers the driver's
/// kTelemetryReq at shutdown, and its obs::RankStall is pushed when its own
/// watchdog declares a stall. A trace's clock fields are the driver's own
/// estimates for the sending rank, filled in on arrival, so the codec leaves
/// them out.
std::vector<std::byte> encode_telemetry(const obs::RankTrace& trace);
std::vector<std::byte> encode_telemetry(const obs::RankStall& stall);
std::variant<obs::RankTrace, obs::RankStall> decode_telemetry(
    const std::vector<std::byte>& bytes);

}  // namespace idxl::dist
