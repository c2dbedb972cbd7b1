// Unit tests for the cluster-trace machinery added with distributed tracing:
// the shared json_escape helper, the midpoint clock estimator, the
// clock-aligned trace merge (orphans, flow edges, union critical path), the
// merged stall dump, and the telemetry / MetricsSnapshot wire codecs.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "dist/protocol.hpp"
#include "net/clock.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_merge.hpp"
#include "test_json.hpp"

namespace idxl {
namespace {

using obs::ClusterTrace;
using obs::RankStall;
using obs::RankTrace;
using testjson::JsonParser;
using testjson::JValue;

// ---------- json_escape (the one shared definition) ----------

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  std::string out;
  obs::json_escape(out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\u0001f");
  EXPECT_EQ(obs::json_quote("x\"y"), "\"x\\\"y\"");
}

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  std::string out = "prefix:";
  obs::json_escape(out, "plain text 123");
  EXPECT_EQ(out, "prefix:plain text 123");
}

// ---------- midpoint clock estimator ----------

uint64_t steady_now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TEST(ClockTableTest, PingGetsPongWithEchoedT1) {
  net::ClockTable table;
  const std::vector<std::byte> ping = net::ClockTable::make_ping();
  net::ClockProbe probe;
  ASSERT_TRUE(net::ClockProbe::decode(ping, probe));
  EXPECT_EQ(probe.pong, 0u);
  EXPECT_GT(probe.t1_ns, 0u);

  const std::vector<std::byte> pong = table.on_probe(7, ping);
  ASSERT_FALSE(pong.empty());
  net::ClockProbe reply;
  ASSERT_TRUE(net::ClockProbe::decode(pong, reply));
  EXPECT_EQ(reply.pong, 1u);
  EXPECT_EQ(reply.t1_ns, probe.t1_ns);  // originator's stamp echoed back
  EXPECT_GT(reply.t2_ns, 0u);
  // Answering a ping absorbs nothing: no estimate for the peer yet.
  EXPECT_FALSE(table.estimate(7).valid);
}

TEST(ClockTableTest, PongYieldsMidpointEstimate) {
  net::ClockTable table;
  // Craft a pong claiming the peer's clock runs 1s ahead: t2 = t1 + 1s while
  // the local turnaround (t3 - t1) stays tiny, so the midpoint estimate must
  // land close to +1s.
  constexpr int64_t kAhead = 1'000'000'000;
  net::ClockProbe pong;
  pong.pong = 1;
  pong.t1_ns = steady_now_ns();
  pong.t2_ns = pong.t1_ns + kAhead;
  EXPECT_TRUE(table.on_probe(3, pong.encode()).empty());

  const net::ClockEstimate est = table.estimate(3);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.samples, 1u);
  EXPECT_GT(est.rtt_ns, 0u);
  // offset = t2 - (t1+t3)/2 = kAhead - rtt/2: within ±rtt of the truth.
  EXPECT_NEAR(static_cast<double>(est.offset_ns), static_cast<double>(kAhead),
              static_cast<double>(est.rtt_ns) + 1e6);
}

TEST(ClockTableTest, LegacyHeartbeatPayloadIsIgnored) {
  net::ClockTable table;
  EXPECT_TRUE(table.on_probe(1, {}).empty());
  std::vector<std::byte> junk(3, std::byte{0x5a});
  EXPECT_TRUE(table.on_probe(1, junk).empty());
  EXPECT_FALSE(table.estimate(1).valid);
}

TEST(ClockTableTest, ExportsOffsetGauges) {
  obs::MetricsRegistry reg;
  net::ClockTable table(&reg);
  net::ClockProbe pong;
  pong.pong = 1;
  pong.t1_ns = steady_now_ns();
  pong.t2_ns = pong.t1_ns;
  (void)table.on_probe(2, pong.encode());
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_NE(snap.series("idxl_net_clock_offset_ns", {{"rank", "2"}}), nullptr);
  EXPECT_NE(snap.series("idxl_net_clock_rtt_ns", {{"rank", "2"}}), nullptr);
}

// ---------- trace merge ----------

/// Two-rank fixture: rank 0 executed task seq=5 (a kTask span); rank 1
/// recorded the receiving apply span parented on it.
ClusterTrace make_linked_trace() {
  ClusterTrace trace;
  RankTrace r0;
  r0.rank = 0;
  r0.epoch_ns = 1'000'000;
  r0.names = {"producer", "xfer-apply"};
  ProfileEvent task;
  task.name = 0;
  task.cat = ProfCategory::kTask;
  task.seq = 5;
  task.start_ns = 100;
  task.dur_ns = 50;
  r0.spans.push_back(task);
  trace.ranks.push_back(std::move(r0));

  RankTrace r1;
  r1.rank = 1;
  r1.epoch_ns = 3'000'000;
  r1.clock_offset_ns = 2'000'000;  // perfectly cancels the epoch skew
  r1.rtt_ns = 10'000;
  r1.names = {"producer", "xfer-apply"};
  ProfileEvent apply;
  apply.name = 1;
  apply.cat = ProfCategory::kExchange;
  apply.seq = 5;
  apply.start_ns = 400;
  apply.dur_ns = 20;
  apply.parent = 5;
  apply.origin = 0;
  r1.spans.push_back(apply);
  trace.ranks.push_back(std::move(r1));
  return trace;
}

TEST(TraceMergeTest, ResolvedRemoteParentIsNotAnOrphan) {
  const ClusterTrace trace = make_linked_trace();
  EXPECT_TRUE(trace.orphans().empty());
  EXPECT_EQ(trace.transfer_edges(), 1u);
}

TEST(TraceMergeTest, MissingParentSpanIsAnOrphan) {
  ClusterTrace trace = make_linked_trace();
  trace.ranks[0].spans.clear();  // the producing span was never recorded
  const std::vector<obs::OrphanSpan> orphans = trace.orphans();
  ASSERT_EQ(orphans.size(), 1u);
  EXPECT_EQ(orphans[0].rank, 1u);
  EXPECT_EQ(orphans[0].parent, 5u);
  EXPECT_EQ(orphans[0].origin, 0u);
  EXPECT_EQ(trace.transfer_edges(), 0u);
}

TEST(TraceMergeTest, UnknownOriginRankIsAnOrphan) {
  ClusterTrace trace = make_linked_trace();
  trace.ranks[1].spans[0].origin = 9;  // no rank 9 in the merge
  EXPECT_EQ(trace.orphans().size(), 1u);
}

TEST(TraceMergeTest, ChromeJsonHasLanesFlowsAndAlignment) {
  const ClusterTrace trace = make_linked_trace();
  const std::string json = trace.chrome_trace_json();

  JValue doc;
  ASSERT_TRUE(JsonParser(json).parse(doc)) << json;
  // One process lane per rank.
  EXPECT_NE(json.find("\"name\":\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"rank 1\""), std::string::npos);
  // The resolved transfer edge becomes a flow-start/flow-end pair keyed by
  // the producing task's seq.
  EXPECT_NE(json.find("\"ph\":\"s\",\"id\":5"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":5"), std::string::npos);
  // Each rank carries its clock-alignment note.
  EXPECT_NE(json.find("\"name\":\"clock-align\""), std::string::npos);
  EXPECT_NE(json.find("\"offset_ns\":2000000"), std::string::npos);
}

TEST(TraceMergeTest, ClockOffsetAlignsTimestampsAcrossRanks) {
  // Rank 1's epoch is 2ms later but its clock is judged 2ms ahead, so after
  // alignment its apply span (local start 400ns) must land at 400ns on the
  // shared timeline too — after the producer span at 100ns, not 2ms away.
  const ClusterTrace trace = make_linked_trace();
  const std::string json = trace.chrome_trace_json();
  // Producer: aligned epoch 1e6 + 100 over a base of 1e6 -> ts 0.100us.
  EXPECT_NE(json.find("\"ts\":0.100"), std::string::npos) << json;
  // Apply: (3e6 - 2e6 + 400) - 1e6 -> ts 0.400us, not ~2000us.
  EXPECT_NE(json.find("\"ts\":0.400"), std::string::npos) << json;
}

TEST(TraceMergeTest, CriticalPathUnionsReplicatedGraphs) {
  // Control replication: both ranks record the same dependence edges, but
  // each task's duration is nonzero only on its executing rank. The union
  // must chain the real durations: 100 + 200 on the 1 -> 2 path.
  ClusterTrace trace;
  RankTrace r0;
  r0.rank = 0;
  r0.samples.push_back({1, 100, {}});
  r0.samples.push_back({2, 0, {1}});  // external copy: zero duration
  trace.ranks.push_back(std::move(r0));
  RankTrace r1;
  r1.rank = 1;
  r1.samples.push_back({1, 0, {}});
  r1.samples.push_back({2, 200, {1}});
  trace.ranks.push_back(std::move(r1));

  const CriticalPathReport cp = trace.critical_path();
  EXPECT_EQ(cp.total_task_ns, 300u);
  EXPECT_EQ(cp.critical_path_ns, 300u);
  ASSERT_EQ(cp.path.size(), 2u);
  EXPECT_EQ(cp.path[0], 1u);
  EXPECT_EQ(cp.path[1], 2u);
}

TEST(TraceMergeTest, LongCriticalPathEventStaysWellFormedJson) {
  // A 64-hop chain of 11-digit seqs renders a critical-path event far past
  // any reasonable stack buffer; the emitted JSON must stay balanced rather
  // than truncate mid-object (regression: a 224-byte snprintf cut the event
  // short and corrupted the whole trace file).
  ClusterTrace trace;
  RankTrace r0;
  r0.rank = 0;
  uint64_t prev = 0;
  for (uint64_t i = 0; i < 64; ++i) {
    const uint64_t seq = 10'000'000'000ull + i * 7;
    std::vector<uint64_t> deps;
    if (prev != 0) deps.push_back(prev);
    r0.samples.push_back({seq, 100, std::move(deps)});
    prev = seq;
  }
  trace.ranks.push_back(std::move(r0));

  const std::string json = trace.chrome_trace_json();
  EXPECT_NE(json.find("cluster-critical-path"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  long braces = 0, brackets = 0;
  for (char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// ---------- merged stall dump ----------

TEST(StallMergeTest, NamesTheBlockingRank) {
  // Rank 0 waits on seq 3, which it lists as a pending external; rank 1
  // does not — rank 1 is executing it and owes the cluster its TaskDone.
  std::vector<RankStall> ranks(2);
  ranks[0].rank = 0;
  obs::BlockedTask blocked;
  blocked.seq = 7;
  blocked.label = "stencil(1,0)";
  blocked.waits_for = {3};
  ranks[0].report.blocked.push_back(blocked);
  ranks[0].pending_externals = {3};
  ranks[1].rank = 1;

  const std::string dump = obs::merged_stall_dump(ranks);
  EXPECT_NE(dump.find("blocking task: seq 3"), std::string::npos) << dump;
  EXPECT_NE(dump.find("blocking rank: 1"), std::string::npos) << dump;
  EXPECT_NE(dump.find("-- rank 0 --"), std::string::npos);
  EXPECT_NE(dump.find("-- rank 1 --"), std::string::npos);
}

TEST(StallMergeTest, NoEdgesMeansTransportStall) {
  std::vector<RankStall> ranks(1);
  ranks[0].rank = 0;
  const std::string dump = obs::merged_stall_dump(ranks);
  EXPECT_NE(dump.find("outside the task graph"), std::string::npos) << dump;
}

// ---------- wire codecs ----------

TEST(TelemetryCodecTest, MetricsSnapshotRoundTripsExactly) {
  obs::MetricsRegistry reg;
  reg.counter("idxl_demo_total", "a demo counter", {{"kind", "x"}}).inc(3);
  reg.gauge("idxl_demo_depth", "a demo gauge").set(-2);
  const obs::Histogram h = reg.histogram("idxl_demo_ns", "a demo histogram");
  h.observe(1);
  h.observe(300);
  const obs::MetricsSnapshot snap = reg.snapshot();

  const obs::MetricsSnapshot back = dist::deserialize_metrics_snapshot(
      dist::serialize_metrics_snapshot(snap));
  EXPECT_EQ(back.taken_ns, snap.taken_ns);
  // Byte-identical exposition is the strongest cheap equality check.
  EXPECT_EQ(back.prometheus_text(), snap.prometheus_text());
  EXPECT_EQ(back.json(), snap.json());
}

TEST(TelemetryCodecTest, TelemetryRoundTripsEveryField) {
  obs::Event fe;
  fe.ts_ns = 99;
  fe.seq = 30;
  fe.launch = 7;
  fe.edge = 11;
  const int64_t coord[2] = {1, -2};
  fe.set_point(coord, 2);
  fe.worker = 1;
  const auto check_recent = [&](const std::vector<obs::Event>& recent) {
    ASSERT_EQ(recent.size(), 1u);
    EXPECT_EQ(recent[0].ts_ns, fe.ts_ns);
    EXPECT_EQ(recent[0].seq, fe.seq);
    EXPECT_EQ(recent[0].launch, fe.launch);
    EXPECT_EQ(recent[0].edge, fe.edge);
    EXPECT_EQ(recent[0].dim, 2);
    EXPECT_EQ(recent[0].coord[0], 1);
    EXPECT_EQ(recent[0].coord[1], -2);
    EXPECT_EQ(recent[0].worker, fe.worker);
  };

  // A shutdown pull carries the rank's trace. The clock fields are the
  // driver's to fill in, so they do not travel.
  RankTrace t;
  t.rank = 3;
  t.clock_offset_ns = -5;
  t.rtt_ns = 8;
  t.epoch_ns = 123456789;
  t.names = {"alpha", "beta \"quoted\""};
  ProfileEvent ev;
  ev.name = 1;
  ev.cat = ProfCategory::kExchange;
  ev.worker = 2;
  ev.tid = 4;
  ev.start_ns = 10;
  ev.dur_ns = 20;
  ev.seq = 30;
  ev.queue_wait_ns = 5;
  ev.launch = 7;
  ev.parent = 30;
  ev.origin = 1;
  t.spans.push_back(ev);
  t.samples.push_back({30, 20, {10, 11}});
  t.recent.push_back(fe);

  const auto pulled = dist::decode_telemetry(dist::encode_telemetry(t));
  ASSERT_TRUE(std::holds_alternative<RankTrace>(pulled));
  const RankTrace& back = std::get<RankTrace>(pulled);
  EXPECT_EQ(back.rank, t.rank);
  EXPECT_EQ(back.clock_offset_ns, 0);
  EXPECT_EQ(back.rtt_ns, 0u);
  EXPECT_EQ(back.epoch_ns, t.epoch_ns);
  EXPECT_EQ(back.names, t.names);
  ASSERT_EQ(back.spans.size(), 1u);
  EXPECT_EQ(back.spans[0].name, ev.name);
  EXPECT_EQ(back.spans[0].cat, ev.cat);
  EXPECT_EQ(back.spans[0].worker, ev.worker);
  EXPECT_EQ(back.spans[0].tid, ev.tid);
  EXPECT_EQ(back.spans[0].start_ns, ev.start_ns);
  EXPECT_EQ(back.spans[0].dur_ns, ev.dur_ns);
  EXPECT_EQ(back.spans[0].seq, ev.seq);
  EXPECT_EQ(back.spans[0].queue_wait_ns, ev.queue_wait_ns);
  EXPECT_EQ(back.spans[0].launch, ev.launch);
  EXPECT_EQ(back.spans[0].parent, ev.parent);
  EXPECT_EQ(back.spans[0].origin, ev.origin);
  EXPECT_TRUE(back.spans[0].remote_parent());
  ASSERT_EQ(back.samples.size(), 1u);
  EXPECT_EQ(back.samples[0].seq, 30u);
  EXPECT_EQ(back.samples[0].dur_ns, 20u);
  EXPECT_EQ(back.samples[0].deps, (std::vector<uint64_t>{10, 11}));
  check_recent(back.recent);

  // A stall push carries the rank's stall report and pending externals.
  RankStall st;
  st.rank = 2;
  st.report.completed = 40;
  st.report.pending = 2;
  st.report.window_ms = 500;
  obs::BlockedTask blocked;
  blocked.seq = 31;
  blocked.launch = 7;
  blocked.label = "stuck";
  blocked.waits_for = {30};
  st.report.blocked.push_back(blocked);
  st.report.recent.push_back(fe);
  obs::MetricsRegistry reg;
  reg.counter("c_total").inc(4);
  st.report.metrics = reg.snapshot();
  st.pending_externals = {30, 32};

  const auto pushed = dist::decode_telemetry(dist::encode_telemetry(st));
  ASSERT_TRUE(std::holds_alternative<RankStall>(pushed));
  const RankStall& stall = std::get<RankStall>(pushed);
  EXPECT_EQ(stall.rank, st.rank);
  EXPECT_EQ(stall.report.completed, st.report.completed);
  EXPECT_EQ(stall.report.pending, st.report.pending);
  EXPECT_EQ(stall.report.window_ms, st.report.window_ms);
  ASSERT_EQ(stall.report.blocked.size(), 1u);
  EXPECT_EQ(stall.report.blocked[0].seq, 31u);
  EXPECT_EQ(stall.report.blocked[0].launch, 7u);
  EXPECT_EQ(stall.report.blocked[0].label, "stuck");
  EXPECT_EQ(stall.report.blocked[0].waits_for, (std::vector<uint64_t>{30}));
  check_recent(stall.report.recent);
  EXPECT_EQ(stall.report.metrics.value("c_total"), 4u);
  EXPECT_EQ(stall.pending_externals, st.pending_externals);
}

}  // namespace
}  // namespace idxl
