#include "obs/trace_merge.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "support/error.hpp"

namespace idxl::obs {

namespace {

/// A rank-local timestamp mapped onto the driver's timeline (absolute ns).
double aligned_ns(const RankTrace& r, uint64_t ts_ns) {
  return static_cast<double>(r.epoch_ns) - static_cast<double>(r.clock_offset_ns) +
         static_cast<double>(ts_ns);
}

/// Index of the kTask span for each seq on one rank (last one wins, so a
/// retried task resolves to the attempt that completed).
std::unordered_map<uint64_t, std::size_t> task_span_index(const RankTrace& r) {
  std::unordered_map<uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const ProfileEvent& ev = r.spans[i];
    if (ev.cat == ProfCategory::kTask && ev.seq != ProfileEvent::kNoSeq)
      index[ev.seq] = i;
  }
  return index;
}

}  // namespace

std::vector<OrphanSpan> ClusterTrace::orphans() const {
  std::vector<OrphanSpan> out;
  std::unordered_map<uint32_t, std::unordered_map<uint64_t, std::size_t>> by_rank;
  for (const RankTrace& r : ranks) by_rank.emplace(r.rank, task_span_index(r));
  for (const RankTrace& r : ranks) {
    for (const ProfileEvent& ev : r.spans) {
      if (!ev.remote_parent()) continue;
      const auto origin = by_rank.find(ev.origin);
      if (origin == by_rank.end() || origin->second.count(ev.parent) == 0)
        out.push_back({r.rank, ev.seq, ev.parent, ev.origin});
    }
  }
  return out;
}

std::size_t ClusterTrace::transfer_edges() const {
  std::size_t remote = 0;
  for (const RankTrace& r : ranks)
    for (const ProfileEvent& ev : r.spans)
      if (ev.remote_parent()) ++remote;
  return remote - orphans().size();
}

CriticalPathReport ClusterTrace::critical_path() const {
  // Union the replicated task graphs: every rank records the same issue
  // order and dependence edges, but only the executing rank has a nonzero
  // duration for a task — take the max so external (zero-dur) copies never
  // mask the real execution time.
  std::map<uint64_t, TaskSample> merged;
  for (const RankTrace& r : ranks) {
    for (const TaskSample& s : r.samples) {
      TaskSample& m = merged[s.seq];
      m.seq = s.seq;
      m.dur_ns = std::max(m.dur_ns, s.dur_ns);
      for (uint64_t dep : s.deps)
        if (std::find(m.deps.begin(), m.deps.end(), dep) == m.deps.end())
          m.deps.push_back(dep);
    }
  }
  std::vector<TaskSample> samples;
  samples.reserve(merged.size());
  for (auto& [seq, s] : merged) samples.push_back(std::move(s));
  return idxl::critical_path(samples);
}

std::string ClusterTrace::chrome_trace_json() const {
  // Zero of the merged timeline: the earliest aligned event-log epoch, so
  // every timestamp is positive and the driver's own spans keep their
  // relative positions.
  double base = 0.0;
  bool have_base = false;
  for (const RankTrace& r : ranks) {
    const double e = aligned_ns(r, 0);
    if (!have_base || e < base) base = e, have_base = true;
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[224];
  bool first = true;
  auto emit = [&](const char* fmt, auto... args) {
    if (!first) out += ',';
    first = false;
    const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
    if (n >= 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
      out += buf;
      return;
    }
    // Oversized event (e.g. a long critical path): re-render into a buffer
    // that fits rather than emitting a truncated — and malformed — object.
    std::vector<char> big(static_cast<std::size_t>(n) + 1);
    std::snprintf(big.data(), big.size(), fmt, args...);
    out += big.data();
  };

  std::unordered_map<uint32_t, std::unordered_map<uint64_t, std::size_t>> by_rank;
  for (const RankTrace& r : ranks) by_rank.emplace(r.rank, task_span_index(r));

  for (const RankTrace& r : ranks) {
    emit("{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
         "\"args\":{\"name\":\"rank %u\"}}",
         r.rank, r.rank);
    emit("{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_sort_index\","
         "\"args\":{\"sort_index\":%u}}",
         r.rank, r.rank);
    append_chrome_spans(out, first, r.spans, r.names, r.rank, aligned_ns(r, 0) - base);

    // Clock-alignment note per rank: how far its clock was judged off and
    // the probe RTT bounding the estimate's error.
    emit("{\"ph\":\"i\",\"s\":\"p\",\"name\":\"clock-align\",\"pid\":%u,"
         "\"tid\":0,\"ts\":%.3f,\"args\":{\"offset_ns\":%" PRId64
         ",\"rtt_ns\":%" PRIu64 "}}",
         r.rank, (aligned_ns(r, 0) - base) / 1e3, r.clock_offset_ns, r.rtt_ns);
  }

  // Flow events: connect each remote-parented apply span to the producing
  // task span on its origin rank. Transfer seqs are unique cluster-wide, so
  // the parent seq doubles as the flow id.
  for (const RankTrace& r : ranks) {
    for (const ProfileEvent& ev : r.spans) {
      if (!ev.remote_parent()) continue;
      const RankTrace* origin = nullptr;
      for (const RankTrace& o : ranks)
        if (o.rank == ev.origin) origin = &o;
      if (origin == nullptr) continue;
      const auto& index = by_rank.at(ev.origin);
      const auto it = index.find(ev.parent);
      if (it == index.end()) continue;
      const ProfileEvent& src = origin->spans[it->second];
      emit("{\"ph\":\"s\",\"id\":%" PRIu64
           ",\"name\":\"xfer\",\"cat\":\"net\",\"pid\":%u,\"tid\":%u,"
           "\"ts\":%.3f}",
           ev.parent, origin->rank, src.tid,
           (aligned_ns(*origin, src.start_ns + src.dur_ns) - base) / 1e3);
      emit("{\"ph\":\"f\",\"bp\":\"e\",\"id\":%" PRIu64
           ",\"name\":\"xfer\",\"cat\":\"net\",\"pid\":%u,\"tid\":%u,"
           "\"ts\":%.3f}",
           ev.parent, r.rank, ev.tid, (aligned_ns(r, ev.start_ns) - base) / 1e3);
    }
  }

  const CriticalPathReport cp = critical_path();
  if (cp.total_task_ns > 0) {
    std::string path = "[";
    for (std::size_t i = 0; i < cp.path.size() && i < 64; ++i) {
      if (i != 0) path += ',';
      path += std::to_string(cp.path[i]);
    }
    path += ']';
    emit("{\"ph\":\"i\",\"s\":\"g\",\"name\":\"cluster-critical-path\","
         "\"pid\":0,\"tid\":0,\"ts\":0,\"args\":{\"critical_path_ms\":%.3f,"
         "\"total_task_ms\":%.3f,\"max_speedup\":%.2f,\"path\":%s}}",
         static_cast<double>(cp.critical_path_ns) / 1e6,
         static_cast<double>(cp.total_task_ns) / 1e6, cp.max_speedup(),
         path.c_str());
  }

  out += "]}";
  return out;
}

void ClusterTrace::write_chrome_trace(const std::string& path) const {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  IDXL_REQUIRE(f != nullptr, ("cannot open trace file " + path).c_str());
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

std::string merged_stall_dump(const std::vector<RankStall>& ranks) {
  std::string out = "== idxl cluster stall dump (" +
                    std::to_string(ranks.size()) + " ranks) ==\n";

  // The merged waits-for graph: which seqs are blocked anywhere, and which
  // are waited on. The chain head is the lowest waited-on seq that is not
  // itself blocked — the task the whole cluster is stuck behind.
  std::unordered_set<uint64_t> blocked;
  std::set<uint64_t> waited;
  std::unordered_map<uint64_t, std::string> labels;
  for (const RankStall& r : ranks) {
    for (const BlockedTask& t : r.report.blocked) {
      blocked.insert(t.seq);
      if (!t.label.empty()) labels[t.seq] = t.label;
      for (uint64_t dep : t.waits_for) waited.insert(dep);
    }
  }
  uint64_t head = Event::kNone;
  for (uint64_t seq : waited)
    if (blocked.count(seq) == 0) {
      head = seq;
      break;
    }
  if (head == Event::kNone && !waited.empty()) head = *waited.begin();

  if (head != Event::kNone) {
    // The blocking rank is the one executing `head`: every other rank lists
    // it as a pending external (a TaskDone it still owes them).
    std::vector<uint32_t> owners, waiters;
    for (const RankStall& r : ranks) {
      const bool external = std::find(r.pending_externals.begin(),
                                      r.pending_externals.end(),
                                      head) != r.pending_externals.end();
      (external ? waiters : owners).push_back(r.rank);
    }
    char line[256];
    const auto label = labels.find(head);
    std::snprintf(line, sizeof(line),
                  "blocking task: seq %" PRIu64 "%s%s%s\n", head,
                  label != labels.end() ? " (" : "",
                  label != labels.end() ? label->second.c_str() : "",
                  label != labels.end() ? ")" : "");
    out += line;
    if (!owners.empty()) {
      out += "blocking rank:";
      for (uint32_t r : owners) out += ' ' + std::to_string(r);
      std::snprintf(line, sizeof(line),
                    " -- %zu rank(s) wait on its TaskDone(seq=%" PRIu64 ")\n",
                    waiters.size(), head);
      out += line;
    } else {
      out += "blocking rank: unknown (every rank lists the task as a "
             "pending external)\n";
    }
  } else {
    out += "no merged waits-for edges: stall is outside the task graph "
           "(handshake, fence ack, or transport)\n";
  }

  for (const RankStall& r : ranks) {
    out += "-- rank " + std::to_string(r.rank) + " --\n";
    if (!r.pending_externals.empty()) {
      out += "pending externals:";
      std::size_t shown = 0;
      for (uint64_t seq : r.pending_externals) {
        if (shown++ == 16) {
          out += " ...";
          break;
        }
        out += ' ' + std::to_string(seq);
      }
      out += '\n';
    }
    out += r.report.to_string();
  }
  return out;
}

}  // namespace idxl::obs
