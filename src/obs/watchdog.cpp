#include "obs/watchdog.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "support/error.hpp"

namespace idxl::obs {

std::string StallReport::to_string() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "== idxl stall report ==\n"
                "no completions for %" PRIu64 " ms: %" PRIu64
                " task(s) pending, %" PRIu64 " completed\n",
                window_ms, pending, completed);
  out += buf;

  out += "-- waits-for graph (blocked tasks) --\n";
  if (blocked.empty()) {
    out += "  (no live-task table; enable the watchdog to populate it)\n";
  }
  for (const BlockedTask& t : blocked) {
    std::snprintf(buf, sizeof(buf), "  task %" PRIu64, t.seq);
    out += buf;
    if (!t.label.empty()) {
      out += " [";
      out += t.label;
      out += ']';
    }
    if (t.launch != Event::kNone) {
      std::snprintf(buf, sizeof(buf), " launch %" PRIu64, t.launch);
      out += buf;
    }
    out += " waits for {";
    for (std::size_t i = 0; i < t.waits_for.size(); ++i) {
      if (i != 0) out += ", ";
      std::snprintf(buf, sizeof(buf), "%" PRIu64, t.waits_for[i]);
      out += buf;
    }
    out += "}\n";
  }

  std::snprintf(buf, sizeof(buf), "-- last %zu lifecycle events --\n",
                recent.size());
  out += buf;
  for (const Event& e : recent) {
    std::snprintf(buf, sizeof(buf), "  [%12.6f ms] %-14s",
                  static_cast<double>(e.ts_ns) / 1e6,
                  lifecycle_event_name(e.kind));
    out += buf;
    if (e.seq != Event::kNone) {
      std::snprintf(buf, sizeof(buf), " seq=%" PRIu64, e.seq);
      out += buf;
    }
    if (e.launch != Event::kNone) {
      std::snprintf(buf, sizeof(buf), " launch=%" PRIu64, e.launch);
      out += buf;
    }
    if (e.edge != Event::kNone) {
      std::snprintf(buf, sizeof(buf), " edge=%" PRIu64, e.edge);
      out += buf;
    }
    if (e.detail != LifecycleDetail::kNone) {
      out += " detail=";
      out += lifecycle_detail_name(e.detail);
    }
    const std::string point = e.point_string();
    if (!point.empty()) {
      out += " point=";
      out += point;
    }
    std::snprintf(buf, sizeof(buf), " worker=%d\n", e.worker);
    out += buf;
  }

  out += "-- metrics snapshot --\n";
  out += metrics.prometheus_text();
  return out;
}

Watchdog::Watchdog(WatchdogConfig config, ProgressFn progress, ReportFn report)
    : config_(std::move(config)),
      progress_(std::move(progress)),
      report_(std::move(report)) {
  IDXL_REQUIRE(static_cast<bool>(progress_), "watchdog needs a progress callback");
  IDXL_REQUIRE(static_cast<bool>(report_), "watchdog needs a report callback");
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { loop(); });
}

void Watchdog::stop() {
  std::thread t;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
    t = std::move(thread_);
  }
  cv_.notify_all();
  t.join();
}

bool Watchdog::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return thread_.joinable();
}

void Watchdog::set_on_stall(std::function<void(const StallReport&)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  on_stall_ = std::move(fn);
}

void Watchdog::set_stall_action(std::function<void()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  stall_action_ = std::move(fn);
}

uint64_t Watchdog::stalls_detected() const {
  return stalls_.load(std::memory_order_relaxed);
}

void Watchdog::loop() {
  using clock = std::chrono::steady_clock;
  const auto period = std::chrono::milliseconds(
      config_.check_period_ms == 0 ? 1 : config_.check_period_ms);

  uint64_t last_completed = 0;
  clock::time_point last_progress = clock::now();
  bool armed = true;
  bool first_sample = true;

  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, period, [this] { return stop_; });
      if (stop_) return;
    }
    const auto [completed, pending] = progress_();
    const clock::time_point now = clock::now();
    if (first_sample || completed != last_completed || pending == 0) {
      // Progress (or idle): reset the window and re-arm.
      last_completed = completed;
      last_progress = now;
      armed = true;
      first_sample = false;
      continue;
    }
    const auto stalled_for =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - last_progress);
    if (armed && stalled_for.count() >=
                     static_cast<int64_t>(config_.stall_window_ms)) {
      armed = false;  // one dump per stall episode
      fire(completed, pending, static_cast<uint64_t>(stalled_for.count()));
    }
  }
}

void Watchdog::fire(uint64_t completed, uint64_t pending, uint64_t window_ms) {
  stalls_.fetch_add(1, std::memory_order_relaxed);
  StallReport report = report_();
  report.completed = completed;
  report.pending = pending;
  report.window_ms = window_ms;

  const std::string text = report.to_string();
  if (!config_.dump_path.empty()) {
    if (std::FILE* f = std::fopen(config_.dump_path.c_str(), "w")) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "idxl watchdog: cannot open dump path %s\n",
                   config_.dump_path.c_str());
      std::fwrite(text.data(), 1, text.size(), stderr);
    }
  } else {
    std::fwrite(text.data(), 1, text.size(), stderr);
  }

  std::function<void(const StallReport&)> hook;
  std::function<void()> action;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hook = on_stall_;
    if (config_.cancel_on_stall) action = stall_action_;
  }
  if (action) {
    std::fprintf(stderr, "idxl watchdog: cancelling the stalled run\n");
    action();
  }
  if (hook) hook(report);

  if (config_.abort_on_stall) {
    std::fprintf(stderr, "idxl watchdog: aborting on stall\n");
    std::abort();
  }
}

}  // namespace idxl::obs
