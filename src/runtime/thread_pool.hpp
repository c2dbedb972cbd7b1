#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace idxl {

/// Minimal work queue backing the real (in-process) executor. Tasks are
/// opaque closures; dependence ordering is handled above this layer (the
/// pool only ever sees *ready* tasks).
class ThreadPool {
 public:
  /// Workers tag their event-log lanes with ids 0..workers-1.
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a ready task.
  void submit(std::function<void()> fn);

  /// Enqueue a batch of ready tasks under a single lock acquisition, waking
  /// at most one worker per task (all workers when the batch saturates the
  /// pool). Issuing an index launch's expansion chunks this way costs one
  /// mutex round-trip per launch instead of one per chunk.
  void submit_batch(std::vector<std::function<void()>> fns);

  /// Run `fn` on the (lazily started) timer thread after `delay_ms`. The
  /// callback must be lightweight — set flags, or submit() real work back to
  /// the pool; it deliberately bypasses the worker queue so timeouts fire
  /// even when every worker is busy in a stuck task. The pending timer
  /// counts toward wait_idle() (retry backoff must hold a fence open).
  /// Returns a nonzero id for cancel_timer().
  uint64_t submit_after(std::function<void()> fn, uint64_t delay_ms);

  /// Cancel a pending timer. Returns true if it had not fired yet (the
  /// callback will never run); false once firing has begun or the id is
  /// unknown.
  bool cancel_timer(uint64_t id);

  /// Block until every submitted task (including tasks submitted by running
  /// tasks) has finished. Must not be called while paused (it would wait
  /// forever on the parked queue).
  void wait_idle();

  /// Stop workers from dequeuing further tasks and block until every task
  /// already mid-execution has finished: no task body starts until
  /// `resume()`. Submissions still enqueue; the queue simply holds. A job
  /// that would start a further task itself (the runtime's inline
  /// successor) checks paused() and submits it instead. The deterministic
  /// test gate: issue work against a paused pool, assert on the runtime's
  /// issue-time state, then resume().
  void pause();
  void resume();
  /// Lock-free read: cheap enough to check before every inline start.
  bool paused() const { return paused_.load(std::memory_order_acquire); }

  unsigned worker_count() const { return static_cast<unsigned>(threads_.size()); }
  /// Tasks enqueued but not yet picked up (metrics gauge; takes the lock).
  std::size_t queue_depth() const;
  /// Tasks currently mid-execution on workers (metrics gauge).
  std::size_t executing() const;

 private:
  struct Timer {
    uint64_t id = 0;
    std::chrono::steady_clock::time_point deadline;
    std::function<void()> fn;
  };

  void worker_loop(int worker_id);
  void timer_loop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::condition_variable timer_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<Timer> timers_;  // unordered; counts are small, scans are fine
  std::vector<std::thread> threads_;
  std::thread timer_thread_;   // lazily started by the first submit_after()
  uint64_t next_timer_id_ = 0;
  std::size_t in_flight_ = 0;   // queued + executing + pending/firing timers
  std::size_t executing_ = 0;   // mid-execution on a worker
  bool shutdown_ = false;
  /// Destructor phase 1: stop the timer thread first, while submissions are
  /// still accepted, so a mid-fire timer callback can finish its submit().
  bool timers_stop_ = false;
  /// Written under mu_ (so workers waiting on work_cv_ see it), read
  /// without it by paused().
  std::atomic<bool> paused_{false};
};

}  // namespace idxl
