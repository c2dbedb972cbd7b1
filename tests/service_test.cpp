// Tests for the multi-tenant session server (src/service): fair-share
// scheduling, typed quota rejects, per-session namespace isolation,
// graceful drain, poisoned-session eviction, and the ThreadPool
// timer-vs-destructor shutdown ordering the service's restart-heavy
// lifecycle depends on.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dist/task_registry.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "runtime/runtime.hpp"
#include "runtime/serialize.hpp"
#include "runtime/thread_pool.hpp"
#include "service/client.hpp"
#include "service/fair_share.hpp"
#include "service/service_runtime.hpp"

using namespace idxl;
using namespace idxl::service;

namespace {

// A task body that always fails terminally — the poisoned-session tests
// launch it to fault one tenant without touching any region.
void failing_body(TaskContext&) { throw std::runtime_error("svc boom"); }
IDXL_DIST_REGISTER_TASK(svc_test_fail, failing_body);

std::unique_ptr<RuntimeApi> local_backend(unsigned workers = 2) {
  RuntimeConfig config;
  config.workers = workers;
  return std::make_unique<Runtime>(config);
}

/// Per-client fixture state: a 1-D region of doubles partitioned into
/// disjoint blocks, filled with `init`.
struct ClientRegion {
  IndexSpaceId is;
  FieldSpaceId fs;
  FieldId f = 0;
  PartitionId part;
  RegionId region;
};

ClientRegion setup_region(ServiceClient& c, int64_t elems, int64_t nblocks,
                          double init) {
  ClientRegion r;
  r.is = c.create_index_space(Domain(Rect::line(elems)));
  r.fs = c.create_field_space();
  r.f = c.allocate_field(r.fs, sizeof(double), "v");
  std::vector<Domain> blocks;
  const int64_t bs = elems / nblocks;
  for (int64_t b = 0; b < nblocks; ++b)
    blocks.emplace_back(Rect(Point::p1(b * bs), Point::p1((b + 1) * bs - 1)));
  r.part = c.create_partition(r.is, Rect::line(nblocks), blocks,
                              Disjointness::kDisjoint);
  r.region = c.create_region(r.is, r.fs);
  c.fill(r.region, r.f, init);
  return r;
}

IndexLauncher increment_launch(ServiceClient& c, const ClientRegion& r,
                               int64_t nblocks) {
  struct Args {
    FieldId fin = 0;
    FieldId fout = 1;
    int64_t radius = 1, nx = 0, ny = 0;
  } args;
  args.fin = r.f;
  return IndexLauncher::over(Domain(Rect::line(nblocks)))
      .with_task(c.task_id("smoke_increment"))
      .region(r.region, r.part, ProjectionFunctor::identity(1), {r.f},
              Privilege::kReadWrite)
      .scalars(args);
}

}  // namespace

// --- FairShareQueue units -------------------------------------------------

TEST(FairShare, WeightedPopRatioIsExact) {
  FairShareQueue<int> q;
  q.add_session(1, 4);
  q.add_session(2, 1);
  for (int i = 0; i < 25; ++i) {
    q.push(1, i);
    q.push(2, i);
  }
  int from1 = 0, from2 = 0;
  uint64_t sid = 0;
  int item = 0;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(q.pop(&sid, &item));
    (sid == 1 ? from1 : from2)++;
  }
  // Weight 4 vs 1: exactly a 4:1 split over any aligned window.
  EXPECT_EQ(from1, 20);
  EXPECT_EQ(from2, 5);
  EXPECT_EQ(q.size(), 25u);
}

TEST(FairShare, IdleSessionBanksNoCredit) {
  FairShareQueue<int> q;
  q.add_session(1, 1);
  q.add_session(2, 1);
  for (int i = 0; i < 10; ++i) q.push(1, i);
  uint64_t sid = 0;
  int item = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.pop(&sid, &item));
    EXPECT_EQ(sid, 1u);
  }
  // Session 2 slept through 4 quanta; its pass clamps to the current
  // virtual time, so it gets one turn — not four back-to-back.
  for (int i = 0; i < 4; ++i) q.push(2, i);
  std::vector<uint64_t> order;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.pop(&sid, &item));
    order.push_back(sid);
  }
  const std::vector<uint64_t> expect = {2, 1, 2, 1, 2, 1, 2, 1};
  EXPECT_EQ(order, expect);
}

TEST(FairShare, RemoveSessionReturnsBacklog) {
  FairShareQueue<int> q;
  q.add_session(7, 2);
  q.push(7, 1);
  q.push(7, 2);
  q.push(7, 3);
  EXPECT_EQ(q.session_depth(7), 3u);
  const std::vector<int> dropped = q.remove_session(7);
  EXPECT_EQ(dropped.size(), 3u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.has_session(7));
  EXPECT_TRUE(q.remove_session(7).empty());
}

// --- quota enforcement ----------------------------------------------------

TEST(ServiceQuota, InFlightQuotaIsTypedRejectNotHang) {
  ServiceConfig config;
  config.quota.max_in_flight = 4;
  ServiceRuntime server(local_backend(), config);
  const uint16_t port = server.listen_tcp();
  ServiceClient client = ServiceClient::connect_tcp("127.0.0.1", port);

  const ClientRegion r = setup_region(client, 64, 4, 0.0);
  ASSERT_TRUE(client.fence().ok());

  server.pause_scheduler();
  std::vector<uint64_t> tags;
  for (int i = 0; i < 4; ++i)
    tags.push_back(client.launch(increment_launch(client, r, 4)));
  while (server.queued() < 4) std::this_thread::yield();

  // The 5th launch exceeds max_in_flight: the receive thread answers with
  // a typed reject immediately, even though the scheduler is stopped.
  const uint64_t over = client.launch(increment_launch(client, r, 4));
  const LaunchAck rejected = client.await_ack(over);
  EXPECT_EQ(rejected.code, Err::kQuotaInFlight);
  EXPECT_EQ(client.rejects(), 1u);

  server.resume_scheduler();
  for (const uint64_t tag : tags) EXPECT_EQ(client.await_ack(tag).code, Err::kOk);
  ASSERT_TRUE(client.fence().ok());

  const std::vector<std::byte> bytes = client.read_field(r.region, r.f);
  double v = 0;
  std::memcpy(&v, bytes.data(), sizeof(double));
  EXPECT_EQ(v, 4.0);  // exactly the four admitted launches ran
  client.goodbye();
}

TEST(ServiceQuota, RegionBytesQuotaIsTypedSetupReject) {
  ServiceConfig config;
  config.quota.max_region_bytes = 1024;
  ServiceRuntime server(local_backend(), config);
  const uint16_t port = server.listen_tcp();
  ServiceClient client = ServiceClient::connect_tcp("127.0.0.1", port);

  // 1024 doubles = 8 KiB > the 1 KiB quota: the whole batch must be
  // rejected atomically with a typed code, applying nothing.
  const IndexSpaceId is = client.create_index_space(Domain(Rect::line(1024)));
  const FieldSpaceId fs = client.create_field_space();
  client.allocate_field(fs, sizeof(double), "v");
  client.create_region(is, fs);
  try {
    client.flush_setup();
    FAIL() << "setup exceeding the region-bytes quota must throw";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), Err::kQuotaRegionBytes);
  }
  EXPECT_EQ(server.backend().forest().region_count(), 0u);
}

// --- namespace isolation --------------------------------------------------

TEST(ServiceIsolation, ForeignHandlesAreTypedRejects) {
  ServiceRuntime server(local_backend());
  const uint16_t port = server.listen_tcp();

  ServiceClient owner = ServiceClient::connect_tcp("127.0.0.1", port);
  const ClientRegion r = setup_region(owner, 64, 4, 0.0);
  ASSERT_TRUE(owner.fence().ok());

  // The intruder names region/partition 0 — valid backend ids (they belong
  // to `owner`), but not in the intruder's namespace: typed kForeignRegion.
  ServiceClient intruder = ServiceClient::connect_tcp("127.0.0.1", port);
  IndexLauncher foreign =
      IndexLauncher::over(Domain(Rect::line(4)))
          .with_task(intruder.task_id("smoke_increment"))
          .region(RegionId{0}, PartitionId{0}, ProjectionFunctor::identity(1),
                  {0}, Privilege::kReadWrite);
  try {
    intruder.launch_checked(foreign);
    FAIL() << "foreign handles must be rejected";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), Err::kForeignRegion);
  }

  // An out-of-range task index is equally typed.
  IndexLauncher bad_task = IndexLauncher::over(Domain(Rect::line(2)));
  bad_task.task = 10000;
  try {
    intruder.launch_checked(bad_task);
    FAIL() << "unknown task must be rejected";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), Err::kUnknownTask);
  }

  // The owner's data is untouched by the rejected launches.
  ASSERT_TRUE(owner.fence().ok());
  const std::vector<std::byte> bytes = owner.read_field(r.region, r.f);
  double v = 0;
  std::memcpy(&v, bytes.data(), sizeof(double));
  EXPECT_EQ(v, 0.0);
  owner.goodbye();
  intruder.goodbye();
}

TEST(ServiceIsolation, UnknownFieldIsTypedReject) {
  // A read, a fill or a launch naming a field the region's field space
  // lacks is a typed kBackend reject, not an abort of the server and every
  // tenant with it: the same client's next launch and read succeed, and
  // another session is unaffected.
  ServiceRuntime server(local_backend());
  const uint16_t port = server.listen_tcp();
  ServiceClient client = ServiceClient::connect_tcp("127.0.0.1", port);
  ServiceClient other = ServiceClient::connect_tcp("127.0.0.1", port);
  const ClientRegion r = setup_region(client, 64, 4, 0.0);
  const ClientRegion o = setup_region(other, 64, 4, 5.0);
  const FieldId missing = r.f + 1;  // the field space holds only r.f

  const auto expect_backend_reject = [](const char* what, const auto& request) {
    try {
      request();
      ADD_FAILURE() << what << " naming an unknown field must be rejected";
    } catch (const ServiceError& e) {
      EXPECT_EQ(e.code(), Err::kBackend) << what;
    }
  };
  expect_backend_reject("read", [&] { client.read_field(r.region, missing); });
  expect_backend_reject("fill", [&] { client.fill(r.region, missing, 1.0); });
  IndexLauncher unknown = increment_launch(client, r, 4);
  unknown.args[0].fields = {missing};
  expect_backend_reject("launch", [&] { client.launch_checked(unknown); });

  const auto first_value = [](ServiceClient& c, const ClientRegion& cr) {
    const std::vector<std::byte> bytes = c.read_field(cr.region, cr.f);
    double v = 0;
    std::memcpy(&v, bytes.data(), sizeof(double));
    return v;
  };
  client.launch_checked(increment_launch(client, r, 4));
  EXPECT_TRUE(client.fence().ok());
  EXPECT_EQ(first_value(client, r), 1.0);
  other.launch_checked(increment_launch(other, o, 4));
  EXPECT_TRUE(other.fence().ok());
  EXPECT_EQ(first_value(other, o), 6.0);
  client.goodbye();
  other.goodbye();
}

TEST(ServiceIsolation, MalformedSparseDomainIsTypedReject) {
  // A launch frame whose sparse domain claims more points than the frame
  // holds (-1 and 2^40 once made the server reserve for them and die on the
  // escaping std::length_error or std::bad_alloc) is a typed kBackend reject
  // of that launch; another session keeps launching. ServiceClient only
  // sends well-formed frames, so this session speaks the protocol by hand.
  ServiceRuntime server(local_backend());
  const uint16_t port = server.listen_tcp();
  const net::Socket sock = net::Socket::connect_tcp("127.0.0.1", port);
  net::FrameReader reader;
  const auto send = [&](Msg type, const std::vector<std::byte>& payload) {
    const std::vector<std::byte> wire = net::encode_frame(static_cast<uint8_t>(type), payload);
    sock.write_all(wire.data(), wire.size());
  };
  const auto next = [&](Msg type) {
    net::Frame f;
    for (;;) {
      while (!reader.poll(f)) {
        std::byte buf[4096];
        const std::size_t n = sock.read_some(buf, sizeof(buf));
        if (n == 0) throw std::runtime_error("server closed the connection");
        reader.feed(buf, n);
      }
      if (static_cast<Msg>(f.type) == type) return f;
      if (static_cast<Msg>(f.type) != Msg::kPing)
        throw std::runtime_error("unexpected frame type " + std::to_string(f.type));
    }
  };
  send(Msg::kHello, encode_client_hello(ClientHello{}));
  next(Msg::kWelcome);

  IndexLauncher l = IndexLauncher::over(Domain::from_points({Point::p1(0), Point::p1(2)}));
  std::vector<std::byte> bytes = serialize_launcher(l);
  const std::size_t count_at = 10;  // header 5, task id 4, sparse flag 1
  uint64_t tag = 1;
  for (const int64_t n : {int64_t{-1}, int64_t{1} << 40}) {
    for (std::size_t i = 0; i < 8; ++i)
      bytes[count_at + i] = static_cast<std::byte>(static_cast<uint64_t>(n) >> (8 * i));
    send(Msg::kLaunch, encode_tagged(tag, bytes));
    const LaunchAck ack = decode_launch_ack(next(Msg::kLaunchAck).payload);
    EXPECT_EQ(ack.tag, tag) << n;
    EXPECT_EQ(ack.code, Err::kBackend) << n;
    EXPECT_NE(ack.error.find("corrupt sparse domain"), std::string::npos) << ack.error;
    ++tag;
  }

  ServiceClient other = ServiceClient::connect_tcp("127.0.0.1", port);
  const ClientRegion r = setup_region(other, 64, 4, 5.0);
  other.launch_checked(increment_launch(other, r, 4));
  EXPECT_TRUE(other.fence().ok());
  const std::vector<std::byte> data = other.read_field(r.region, r.f);
  double v = 0;
  std::memcpy(&v, data.data(), sizeof(double));
  EXPECT_EQ(v, 6.0);
  other.goodbye();
}

// --- fair-share scheduling under contention -------------------------------

TEST(ServiceFairShare, WeightedIssueOrderUnderContention) {
  ServiceRuntime server(local_backend());
  const uint16_t port = server.listen_tcp();

  ClientHello heavy_hello;
  heavy_hello.tenant = "heavy";
  heavy_hello.weight = 4;
  ServiceClient heavy = ServiceClient::connect_tcp("127.0.0.1", port, heavy_hello);
  ClientHello light_hello;
  light_hello.tenant = "light";
  light_hello.weight = 1;
  ServiceClient light = ServiceClient::connect_tcp("127.0.0.1", port, light_hello);

  const ClientRegion hr = setup_region(heavy, 64, 4, 0.0);
  const ClientRegion lr = setup_region(light, 64, 4, 0.0);
  ASSERT_TRUE(heavy.fence().ok());
  ASSERT_TRUE(light.fence().ok());

  // Stack up 10 launches per tenant while the scheduler is stopped, then
  // release it and recover the issue order from the backend launch ids the
  // acks carry.
  server.pause_scheduler();
  std::vector<uint64_t> heavy_tags, light_tags;
  for (int i = 0; i < 10; ++i) {
    heavy_tags.push_back(heavy.launch(increment_launch(heavy, hr, 4)));
    light_tags.push_back(light.launch(increment_launch(light, lr, 4)));
  }
  while (server.queued() < 20) std::this_thread::yield();
  server.resume_scheduler();

  std::vector<std::pair<uint64_t, bool>> issued;  // (backend launch id, heavy?)
  for (const uint64_t tag : heavy_tags) {
    const LaunchAck ack = heavy.await_ack(tag);
    ASSERT_EQ(ack.code, Err::kOk);
    issued.emplace_back(ack.launch, true);
  }
  for (const uint64_t tag : light_tags) {
    const LaunchAck ack = light.await_ack(tag);
    ASSERT_EQ(ack.code, Err::kOk);
    issued.emplace_back(ack.launch, false);
  }
  std::sort(issued.begin(), issued.end());
  int heavy_in_first_10 = 0;
  for (int i = 0; i < 10; ++i) heavy_in_first_10 += issued[i].second ? 1 : 0;
  // Weight 4 vs 1: stride scheduling issues exactly 8 heavy + 2 light in
  // the first 10 slots (H L H H H H L H H H).
  EXPECT_EQ(heavy_in_first_10, 8);

  ASSERT_TRUE(heavy.fence().ok());
  ASSERT_TRUE(light.fence().ok());
  heavy.goodbye();
  light.goodbye();
}

TEST(ServiceQuota, FenceConsumesEarlierAcks) {
  ServiceRuntime server(local_backend());
  const uint16_t port = server.listen_tcp();
  ServiceClient client = ServiceClient::connect_tcp("127.0.0.1", port);
  const ClientRegion r = setup_region(client, 64, 4, 0.0);

  // Pipelined launches that are never awaited: the fence answers for them,
  // and the client keeps no ack of theirs afterwards.
  std::vector<uint64_t> tags;
  for (int i = 0; i < 8; ++i) tags.push_back(client.launch(increment_launch(client, r, 4)));
  ASSERT_TRUE(client.fence().ok());
  EXPECT_EQ(client.outstanding(), 0u);
  for (const uint64_t tag : tags) EXPECT_THROW(client.await_ack(tag), ServiceError);

  // A launch after the fence is still acknowledged normally.
  const uint64_t later = client.launch(increment_launch(client, r, 4));
  EXPECT_EQ(client.await_ack(later).code, Err::kOk);
  ASSERT_TRUE(client.fence().ok());
  client.goodbye();
}

// --- graceful drain -------------------------------------------------------

TEST(ServiceDrain, DrainCompletesInFlightLaunches) {
  ServiceRuntime server(local_backend());
  const uint16_t port = server.listen_tcp();
  ServiceClient client = ServiceClient::connect_tcp("127.0.0.1", port);

  const ClientRegion r = setup_region(client, 64, 4, 0.0);
  ASSERT_TRUE(client.fence().ok());
  const uint64_t points_before = server.backend().stats().point_tasks;

  // Stage 10 admitted-but-unissued launches, then drain while they are
  // queued: drain must finish them, not drop them.
  server.pause_scheduler();
  std::vector<uint64_t> tags;
  for (int i = 0; i < 10; ++i)
    tags.push_back(client.launch(increment_launch(client, r, 4)));
  while (server.queued() < 10) std::this_thread::yield();
  std::thread drainer([&server] { server.drain(); });
  server.resume_scheduler();
  drainer.join();
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.active_sessions(), 0u);

  // Every admitted launch was issued, retired, and acked before the close.
  for (const uint64_t tag : tags)
    EXPECT_EQ(client.await_ack(tag).code, Err::kOk);
  // ... and actually executed: 10 launches x 4 points.
  EXPECT_EQ(server.backend().stats().point_tasks, points_before + 10u * 4u);

  // Anything after the drain is a typed refusal (or a dead socket).
  EXPECT_ANY_THROW(client.fence());
}

TEST(ServiceDrain, DrainingServerRefusesNewSessions) {
  ServiceRuntime server(local_backend());
  const uint16_t port = server.listen_tcp();
  server.drain();
  try {
    ServiceClient client = ServiceClient::connect_tcp("127.0.0.1", port);
    FAIL() << "draining server must refuse the handshake";
  } catch (const ServiceError& e) {
    EXPECT_EQ(e.code(), Err::kDraining);
  }
}

// --- eviction of a poisoned session ---------------------------------------

TEST(ServiceEviction, EvictedPoisonedSessionLeaksNothing) {
  ServiceRuntime server(local_backend());
  const uint16_t port = server.listen_tcp();

  ClientHello hello;
  hello.tenant = "poisoned";
  ServiceClient victim = ServiceClient::connect_tcp("127.0.0.1", port, hello);
  IndexLauncher boom = IndexLauncher::over(Domain(Rect::line(2)))
                           .with_task(victim.task_id("svc_test_fail"));
  for (int i = 0; i < 3; ++i) victim.launch(boom);

  // The faults are the session's own, surfaced through its fence.
  const FaultReport report = victim.fence();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.failures.size(), 3u * 2u);  // 3 launches x 2 points

  ASSERT_TRUE(server.evict(victim.session(), "poisoned tenant"));
  EXPECT_ANY_THROW({
    for (;;) victim.fence();  // the eviction error frame breaks the loop
  });
  // Teardown is asynchronous; once it lands, the session id is unknown.
  while (server.evict(victim.session(), "twice"))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // A fresh tenant gets a clean runtime: no leaked pool slots (its work
  // completes), and no leaked faults (its report is empty).
  ServiceClient fresh = ServiceClient::connect_tcp("127.0.0.1", port);
  const ClientRegion r = setup_region(fresh, 64, 4, 1.0);
  for (int i = 0; i < 5; ++i) fresh.launch(increment_launch(fresh, r, 4));
  const FaultReport clean = fresh.fence();
  EXPECT_TRUE(clean.ok());
  const std::vector<std::byte> bytes = fresh.read_field(r.region, r.f);
  double v = 0;
  std::memcpy(&v, bytes.data(), sizeof(double));
  EXPECT_EQ(v, 6.0);
  fresh.goodbye();
  server.drain();
  EXPECT_EQ(server.active_sessions(), 0u);
}

// --- restart-heavy lifecycles ---------------------------------------------

TEST(ServiceLifecycle, RepeatedStartStopCyclesRunClean) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    ServiceRuntime server(local_backend());
    const uint16_t port = server.listen_tcp();
    ServiceClient client = ServiceClient::connect_tcp("127.0.0.1", port);
    const ClientRegion r = setup_region(client, 32, 4, 0.0);
    // Retry + backoff exercises ThreadPool::submit_after — the timer thread
    // must shut down cleanly when the ServiceRuntime (and its backend) dies
    // right after.
    IndexLauncher boom = IndexLauncher::over(Domain(Rect::line(2)))
                             .with_task(client.task_id("svc_test_fail"));
    boom.max_retries = 2;
    boom.retry_backoff_ms = 1;
    client.launch(boom);
    client.launch(increment_launch(client, r, 4));
    // No goodbye, no drain: the destructor must handle a live session with
    // in-flight retrying work.
  }
}

TEST(ThreadPoolTimer, DestructorVsFiringTimerSubmitRace) {
  // Regression: a timer callback firing outside the lock may submit() real
  // work concurrently with the destructor. The old single-phase shutdown
  // aborted on the "submit after shutdown" assert; the two-phase destructor
  // must retire the timer thread first, accepting those submissions.
  for (int i = 0; i < 100; ++i) {
    std::atomic<int> ran{0};
    {
      ThreadPool pool(2);
      for (int t = 0; t < 8; ++t)
        pool.submit_after([&pool, &ran] { pool.submit([&ran] { ++ran; }); },
                          0);
      // Destroy immediately: callbacks are firing right now.
    }
    // Any callback that fired before phase 1 finished had its submission
    // accepted and drained; none may have been lost mid-pool.
    EXPECT_LE(ran.load(), 8);
  }
}
