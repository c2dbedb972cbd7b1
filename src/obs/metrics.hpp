#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace idxl::obs {

/// Labels identify one series within a metric family (Prometheus-style):
/// `idxl_pool_queue_depth{pool="0"}`. Keys are sorted at registration so the
/// same label set always names the same series regardless of argument order.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : uint8_t { kCounter, kGauge, kHistogram };

/// Number of power-of-two histogram buckets. Bucket `i` counts observations
/// with bit_width(v) == i, i.e. v in [2^(i-1), 2^i); bucket 0 counts v == 0.
/// 64 buckets cover the full uint64 range, so nanosecond latencies from
/// single digits to hours land in distinct buckets with zero configuration.
inline constexpr std::size_t kHistogramBuckets = 64;

namespace detail {

struct SeriesCell {
  /// One allocation per series; counters/gauges use `value`, histograms use
  /// all fields. Atomics only — the update path never takes a lock.
  std::atomic<uint64_t> value{0};
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum{0};
  std::atomic<uint64_t> buckets[kHistogramBuckets];
};

/// Shared sink for default-constructed (inert) handles: writes land here and
/// reads short-circuit to zero, so uninstrumented code needs no null checks.
SeriesCell& sink_cell();

}  // namespace detail

/// Monotone counter handle. Cheap to copy; values live in the registry, so
/// handles stay valid for the registry's lifetime. The default-constructed
/// handle is inert (writes go to a shared sink cell, reads return 0) so
/// instrumented code never branches on "is metrics wired up".
class Counter {
 public:
  Counter();
  void inc(uint64_t delta = 1) const { cell_->value.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const {
    if (cell_ == &detail::sink_cell()) return 0;
    return cell_->value.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::SeriesCell* cell) : cell_(cell) {}
  detail::SeriesCell* cell_;
};

/// Gauge handle: a value that can go up and down (queue depth, in-flight
/// tasks). Stored as int64 two's complement in the shared cell.
class Gauge {
 public:
  Gauge();
  void set(int64_t v) const {
    cell_->value.store(static_cast<uint64_t>(v), std::memory_order_relaxed);
  }
  void add(int64_t d) const {
    cell_->value.fetch_add(static_cast<uint64_t>(d), std::memory_order_relaxed);
  }
  void sub(int64_t d) const { add(-d); }
  int64_t value() const {
    if (cell_ == &detail::sink_cell()) return 0;
    return static_cast<int64_t>(cell_->value.load(std::memory_order_relaxed));
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::SeriesCell* cell) : cell_(cell) {}
  detail::SeriesCell* cell_;
};

/// Histogram handle with power-of-two buckets: observe() is three relaxed
/// atomic adds and a bit_width — no floating point, no bucket search.
class Histogram {
 public:
  Histogram();
  void observe(uint64_t v) const {
    cell_->buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    cell_->count.fetch_add(1, std::memory_order_relaxed);
    cell_->sum.fetch_add(v, std::memory_order_relaxed);
  }
  uint64_t count() const {
    if (cell_ == &detail::sink_cell()) return 0;
    return cell_->count.load(std::memory_order_relaxed);
  }
  uint64_t sum() const {
    if (cell_ == &detail::sink_cell()) return 0;
    return cell_->sum.load(std::memory_order_relaxed);
  }

  /// Bucket `i` holds observations with bit_width(v) == i, so boundaries
  /// are successive powers of two; the last bucket also absorbs the top
  /// bit_width to stay in range.
  static std::size_t bucket_index(uint64_t v) {
    const auto w = static_cast<std::size_t>(std::bit_width(v));  // 0..64
    return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
  }
  /// Exclusive upper bound of bucket `i` (the Prometheus `le` value);
  /// UINT64_MAX for the last bucket.
  static uint64_t bucket_bound(std::size_t i) {
    return i >= kHistogramBuckets - 1 ? UINT64_MAX : (uint64_t{1} << i) - 1;
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::SeriesCell* cell) : cell_(cell) {}
  detail::SeriesCell* cell_;
};

/// One series' values as read by snapshot(). Exactly one of
/// counter/gauge/histogram fields is meaningful, per `kind` of the family.
struct SeriesSnapshot {
  Labels labels;
  uint64_t counter = 0;
  int64_t gauge = 0;
  uint64_t count = 0;  // histogram
  uint64_t sum = 0;    // histogram
  std::vector<std::pair<uint64_t, uint64_t>> buckets;  // (le, cumulative count)
};

struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::vector<SeriesSnapshot> series;
};

/// A one-pass read of every series in a registry. All atomics are read in a
/// single traversal under the registry's registration lock (no new series
/// can appear halfway through), so the snapshot is as consistent as
/// lock-free counters allow: one coherent pass, not per-field reads spread
/// across the caller's control flow.
struct MetricsSnapshot {
  uint64_t taken_ns = 0;  ///< steady-clock time the snapshot was taken
  std::vector<FamilySnapshot> families;

  const FamilySnapshot* family(std::string_view name) const;
  /// The series of `name` matching `labels` exactly (order-insensitive);
  /// nullptr when absent.
  const SeriesSnapshot* series(std::string_view name, const Labels& labels = {}) const;
  /// Convenience: counter/gauge value of a series, or `fallback` if absent.
  uint64_t value(std::string_view name, const Labels& labels = {},
                 uint64_t fallback = 0) const;

  /// Prometheus text exposition format (one HELP/TYPE block per family,
  /// histogram as cumulative _bucket/_sum/_count).
  std::string prometheus_text() const;
  /// The same data as a JSON document.
  std::string json() const;
};

/// Process- or subsystem-wide registry of labeled metric families. Handle
/// creation takes a lock (setup-time); the update path through handles is
/// lock-free. Snapshots, exporters and collectors run under the lock and
/// are meant for readers (scrapes, dumps, tests), not hot paths.
///
/// Each Runtime owns a registry so concurrent runtimes (tests!) never share
/// series; `MetricsRegistry::global()` is the conventional place for
/// application- and bench-level metrics.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& global();

  /// Get-or-create the series `name{labels}`. `help` is recorded on first
  /// registration of the family. Registering an existing name with a
  /// different kind throws.
  Counter counter(std::string_view name, std::string_view help = "",
                  Labels labels = {});
  Gauge gauge(std::string_view name, std::string_view help = "", Labels labels = {});
  Histogram histogram(std::string_view name, std::string_view help = "",
                      Labels labels = {});

  /// Register a collector: a callback run at the start of every snapshot()
  /// to refresh gauges whose truth lives elsewhere — pool queue depth, cache
  /// hit counts, write-log sizes.
  void add_collector(std::function<void()> fn);

  /// Read every series in one pass (runs collectors first).
  MetricsSnapshot snapshot() const;

 private:
  struct Series {
    Labels labels;
    detail::SeriesCell cell;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    // deque: grows without moving existing cells (handles hold pointers).
    std::deque<Series> series;
  };

  detail::SeriesCell* series_cell(std::string_view name, std::string_view help,
                                  Labels&& labels, MetricKind kind);

  mutable std::mutex mu_;  // guards families_/collectors_ structure
  std::deque<Family> families_;
  std::vector<std::function<void()>> collectors_;
};

}  // namespace idxl::obs
