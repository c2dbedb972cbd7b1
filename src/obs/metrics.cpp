#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "obs/json.hpp"
#include "support/error.hpp"

namespace idxl::obs {

namespace {

uint64_t steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

/// `{key="a",other="b"}`, or empty for the unlabeled series. The exposition
/// format escapes exactly backslash, double-quote, and newline inside label
/// values (a raw newline would terminate the sample line mid-value).
void append_label_set(std::string& out, const Labels& labels) {
  if (labels.empty()) return;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i != 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    for (char c : labels[i].second) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        default: out += c;
      }
    }
    out += '"';
  }
  out += '}';
}

/// Prometheus `le` label value for a power-of-two bucket bound.
std::string le_string(uint64_t bound) {
  if (bound == UINT64_MAX) return "+Inf";
  return std::to_string(bound);
}

}  // namespace

namespace detail {

SeriesCell& sink_cell() {
  static SeriesCell cell;
  return cell;
}

}  // namespace detail

Counter::Counter() : cell_(&detail::sink_cell()) {}
Gauge::Gauge() : cell_(&detail::sink_cell()) {}
Histogram::Histogram() : cell_(&detail::sink_cell()) {}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

detail::SeriesCell* MetricsRegistry::series_cell(std::string_view name,
                                                std::string_view help,
                                                Labels&& labels, MetricKind kind) {
  IDXL_REQUIRE(!name.empty(), "metric name must not be empty");
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = nullptr;
  for (Family& f : families_)
    if (f.name == name) family = &f;
  if (family == nullptr) {
    families_.emplace_back();
    family = &families_.back();
    family->name = std::string(name);
    family->help = std::string(help);
    family->kind = kind;
  } else {
    IDXL_REQUIRE(family->kind == kind,
                 ("metric family registered twice with different kinds: " +
                  family->name)
                     .c_str());
    if (family->help.empty() && !help.empty()) family->help = std::string(help);
  }
  for (Series& s : family->series)
    if (s.labels == labels) return &s.cell;
  family->series.emplace_back();
  family->series.back().labels = std::move(labels);
  return &family->series.back().cell;
}

Counter MetricsRegistry::counter(std::string_view name, std::string_view help,
                                 Labels labels) {
  return Counter(series_cell(name, help, std::move(labels), MetricKind::kCounter));
}

Gauge MetricsRegistry::gauge(std::string_view name, std::string_view help,
                             Labels labels) {
  return Gauge(series_cell(name, help, std::move(labels), MetricKind::kGauge));
}

Histogram MetricsRegistry::histogram(std::string_view name, std::string_view help,
                                     Labels labels) {
  return Histogram(
      series_cell(name, help, std::move(labels), MetricKind::kHistogram));
}

void MetricsRegistry::add_collector(std::function<void()> fn) {
  IDXL_REQUIRE(static_cast<bool>(fn), "collector must be callable");
  std::lock_guard<std::mutex> lock(mu_);
  collectors_.push_back(std::move(fn));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  // Collectors update gauges through their own handles (lock-free), so run
  // them before taking the structure lock — a collector that registers a
  // new series would otherwise deadlock.
  std::vector<std::function<void()>> collectors;
  {
    std::lock_guard<std::mutex> lock(mu_);
    collectors = collectors_;
  }
  for (const auto& fn : collectors) fn();

  MetricsSnapshot snap;
  snap.taken_ns = steady_now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  snap.families.reserve(families_.size());
  for (const Family& f : families_) {
    FamilySnapshot fs;
    fs.name = f.name;
    fs.help = f.help;
    fs.kind = f.kind;
    fs.series.reserve(f.series.size());
    for (const Series& s : f.series) {
      SeriesSnapshot ss;
      ss.labels = s.labels;
      switch (f.kind) {
        case MetricKind::kCounter:
          ss.counter = s.cell.value.load(std::memory_order_relaxed);
          break;
        case MetricKind::kGauge:
          ss.gauge = static_cast<int64_t>(
              s.cell.value.load(std::memory_order_relaxed));
          break;
        case MetricKind::kHistogram: {
          ss.count = s.cell.count.load(std::memory_order_relaxed);
          ss.sum = s.cell.sum.load(std::memory_order_relaxed);
          uint64_t cumulative = 0;
          for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
            const uint64_t n = s.cell.buckets[b].load(std::memory_order_relaxed);
            cumulative += n;
            // Keep the exposition small: only boundaries that have counts
            // below them, plus the mandatory +Inf bucket.
            if (n != 0) ss.buckets.emplace_back(Histogram::bucket_bound(b), cumulative);
          }
          if (ss.buckets.empty() || ss.buckets.back().first != UINT64_MAX)
            ss.buckets.emplace_back(UINT64_MAX, cumulative);
          break;
        }
      }
      fs.series.push_back(std::move(ss));
    }
    snap.families.push_back(std::move(fs));
  }
  return snap;
}

const FamilySnapshot* MetricsSnapshot::family(std::string_view name) const {
  for (const FamilySnapshot& f : families)
    if (f.name == name) return &f;
  return nullptr;
}

const SeriesSnapshot* MetricsSnapshot::series(std::string_view name,
                                              const Labels& labels) const {
  const FamilySnapshot* f = family(name);
  if (f == nullptr) return nullptr;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (const SeriesSnapshot& s : f->series)
    if (s.labels == sorted) return &s;
  return nullptr;
}

uint64_t MetricsSnapshot::value(std::string_view name, const Labels& labels,
                                uint64_t fallback) const {
  const FamilySnapshot* f = family(name);
  if (f == nullptr) return fallback;
  const SeriesSnapshot* s = series(name, labels);
  if (s == nullptr) return fallback;
  return f->kind == MetricKind::kGauge ? static_cast<uint64_t>(s->gauge)
                                       : s->counter;
}

std::string MetricsSnapshot::prometheus_text() const {
  std::string out;
  char buf[64];
  for (const FamilySnapshot& f : families) {
    if (!f.help.empty()) {
      out += "# HELP ";
      out += f.name;
      out += ' ';
      // HELP text escapes backslash and newline (a raw newline would start
      // a bogus exposition line mid-help).
      for (char c : f.help) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
      }
      out += '\n';
    }
    out += "# TYPE ";
    out += f.name;
    out += ' ';
    out += kind_name(f.kind);
    out += '\n';
    for (const SeriesSnapshot& s : f.series) {
      switch (f.kind) {
        case MetricKind::kCounter:
        case MetricKind::kGauge: {
          out += f.name;
          append_label_set(out, s.labels);
          if (f.kind == MetricKind::kCounter)
            std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", s.counter);
          else
            std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", s.gauge);
          out += buf;
          break;
        }
        case MetricKind::kHistogram: {
          for (const auto& [le, cumulative] : s.buckets) {
            out += f.name;
            out += "_bucket";
            Labels with_le = s.labels;
            with_le.emplace_back("le", le_string(le));
            append_label_set(out, with_le);
            std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", cumulative);
            out += buf;
          }
          out += f.name;
          out += "_sum";
          append_label_set(out, s.labels);
          std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", s.sum);
          out += buf;
          out += f.name;
          out += "_count";
          append_label_set(out, s.labels);
          std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n", s.count);
          out += buf;
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsSnapshot::json() const {
  std::string out = "{\"metrics\":[";
  char buf[64];
  bool first_family = true;
  for (const FamilySnapshot& f : families) {
    if (!first_family) out += ',';
    first_family = false;
    out += "{\"name\":\"";
    json_escape(out, f.name);
    out += "\",\"type\":\"";
    out += kind_name(f.kind);
    out += "\",\"help\":\"";
    json_escape(out, f.help);
    out += "\",\"series\":[";
    bool first_series = true;
    for (const SeriesSnapshot& s : f.series) {
      if (!first_series) out += ',';
      first_series = false;
      out += "{\"labels\":{";
      for (std::size_t i = 0; i < s.labels.size(); ++i) {
        if (i != 0) out += ',';
        out += '"';
        json_escape(out, s.labels[i].first);
        out += "\":\"";
        json_escape(out, s.labels[i].second);
        out += '"';
      }
      out += '}';
      switch (f.kind) {
        case MetricKind::kCounter:
          std::snprintf(buf, sizeof(buf), ",\"value\":%" PRIu64, s.counter);
          out += buf;
          break;
        case MetricKind::kGauge:
          std::snprintf(buf, sizeof(buf), ",\"value\":%" PRId64, s.gauge);
          out += buf;
          break;
        case MetricKind::kHistogram: {
          std::snprintf(buf, sizeof(buf), ",\"count\":%" PRIu64 ",\"sum\":%" PRIu64,
                        s.count, s.sum);
          out += buf;
          out += ",\"buckets\":[";
          for (std::size_t i = 0; i < s.buckets.size(); ++i) {
            if (i != 0) out += ',';
            const auto [le, cumulative] = s.buckets[i];
            if (le == UINT64_MAX)
              std::snprintf(buf, sizeof(buf), "{\"le\":\"+Inf\",\"count\":%" PRIu64 "}",
                            cumulative);
            else
              std::snprintf(buf, sizeof(buf),
                            "{\"le\":%" PRIu64 ",\"count\":%" PRIu64 "}", le,
                            cumulative);
            out += buf;
          }
          out += ']';
          break;
        }
      }
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace idxl::obs
