#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace idxl::obs {

struct WatchdogConfig {
  /// How often the monitor thread samples the progress counters.
  uint32_t check_period_ms = 50;
  /// Declare a stall after this long with pending tasks and no completions.
  uint32_t stall_window_ms = 1000;
  /// How many lifecycle events the dump includes.
  std::size_t tail_events = 32;
  /// Abort the process after dumping (post-mortem over hang).
  bool abort_on_stall = false;
  /// Run the stall action (Runtime wires Runtime::cancel_all) after dumping
  /// — graceful degradation: the stalled launch is cancelled and reported
  /// via the FaultReport instead of hanging forever.
  bool cancel_on_stall = false;
  /// Where the dump goes; empty = stderr.
  std::string dump_path;
};

/// One blocked task in the waits-for graph of a stall dump.
struct BlockedTask {
  uint64_t seq = 0;
  uint64_t launch = Event::kNone;
  std::string label;
  /// Seqs of the still-incomplete predecessors this task waits for.
  std::vector<uint64_t> waits_for;
};

/// Everything a stalled run leaves behind: the waits-for graph of blocked
/// tasks, the event log's lifecycle tail, and a metrics snapshot.
struct StallReport {
  uint64_t completed = 0;  ///< tasks completed when the stall was declared
  uint64_t pending = 0;    ///< tasks issued but not completed
  uint64_t window_ms = 0;  ///< how long progress had been absent
  std::vector<BlockedTask> blocked;
  std::vector<Event> recent;
  MetricsSnapshot metrics;

  /// Human-readable post-mortem (what the watchdog writes to stderr/file).
  std::string to_string() const;
};

/// Detects no-progress: a monitor thread samples (completed, pending)
/// counters; when tasks remain pending but the completion count has not
/// moved for a whole stall window, it builds a StallReport via the
/// supplied callback, dumps it, invokes the test hook, and optionally
/// aborts. Re-arms once progress resumes, so a transient near-stall
/// produces at most one dump per episode.
class Watchdog {
 public:
  /// `progress` returns {completed, pending} and must be callable from the
  /// monitor thread at any time (read atomics, not plain fields).
  /// `report` builds the dump; it runs only when a stall was declared.
  using ProgressFn = std::function<std::pair<uint64_t, uint64_t>()>;
  using ReportFn = std::function<StallReport()>;

  Watchdog(WatchdogConfig config, ProgressFn progress, ReportFn report);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void start();
  void stop();
  bool running() const;

  /// Test hook, called with every stall report after it is dumped. Safe to
  /// set while the monitor thread runs.
  void set_on_stall(std::function<void(const StallReport&)> fn);

  /// Graceful-degradation action, run (before the test hook) on each stall
  /// when config.cancel_on_stall is set. The Runtime installs cancel_all().
  void set_stall_action(std::function<void()> fn);

  /// Stalls declared since construction.
  uint64_t stalls_detected() const;

  const WatchdogConfig& config() const { return config_; }

 private:
  void loop();
  void fire(uint64_t completed, uint64_t pending, uint64_t window_ms);

  const WatchdogConfig config_;
  const ProgressFn progress_;
  const ReportFn report_;
  std::function<void(const StallReport&)> on_stall_;
  std::function<void()> stall_action_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool stop_ = false;
  std::atomic<uint64_t> stalls_{0};
};

}  // namespace idxl::obs
