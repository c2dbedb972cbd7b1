#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "region/region_forest.hpp"
#include "runtime/fault.hpp"
#include "runtime/types.hpp"
#include "service/protocol.hpp"

namespace idxl::service {

/// Synchronous client of a ServiceRuntime. Deliberately thread-less (raw
/// Socket + FrameReader on the calling thread), so the soak bench can run
/// hundreds of clients without hundreds of extra sender/receiver threads.
///
/// Region setup happens against a local *mirror* forest — create_* calls
/// return client-namespace handles immediately, and the accumulated journal
/// ops are flushed to the server lazily (before the next launch / fence /
/// read), each batch applied atomically server-side. Launchers are built
/// against the client handles; projection functors must be expression-based
/// (identity / symbolic), since opaque callables cannot cross the wire.
///
/// Launches pipeline: launch() fires and returns a tag without waiting; acks
/// are pumped whenever the client next reads (await_ack, fence, read_field),
/// and a fence consumes the acks of every launch issued before it.
/// launch_checked() waits for the ack and throws ServiceError on a typed
/// reject — what the quota tests assert on. Any kError frame from the server
/// (eviction, drain) surfaces as a thrown ServiceError from whatever call
/// was reading.
class ServiceClient {
 public:
  static ServiceClient connect_tcp(const std::string& host, uint16_t port,
                                   ClientHello hello = {});
  static ServiceClient connect_unix(const std::string& path,
                                    ClientHello hello = {});
  /// Handshake over an already-connected socket (tests: Socket::pair()).
  explicit ServiceClient(net::Socket sock, ClientHello hello = {});
  ~ServiceClient() = default;  // silent close; the server evicts the session

  ServiceClient(ServiceClient&&) = default;
  ServiceClient& operator=(ServiceClient&&) = default;

  const Welcome& welcome() const { return welcome_; }
  uint64_t session() const { return welcome_.session; }

  /// Wire task id for a registered task name; throws ServiceError
  /// (kUnknownTask) if the server does not export it.
  TaskFnId task_id(const std::string& name) const;

  // --- region setup (client-namespace handles, lazily flushed) ---
  IndexSpaceId create_index_space(Domain domain);
  FieldSpaceId create_field_space();
  FieldId allocate_field(FieldSpaceId fs, std::size_t size, std::string name);
  PartitionId create_partition(IndexSpaceId parent, const Rect& color_space,
                               std::vector<Domain> subspaces, Disjointness d);
  RegionId create_region(IndexSpaceId is, FieldSpaceId fs);
  RegionId subregion(RegionId parent, PartitionId p, const Point& color);

  /// Ship any unflushed setup ops now (atomic batch). Throws ServiceError
  /// on a typed reject (e.g. kQuotaRegionBytes) — after which the client's
  /// mirror and the server namespace have diverged and this client must not
  /// issue further setup or launches.
  void flush_setup();

  /// Fire-and-forget index launch; returns the tag (await_ack to check).
  uint64_t launch(const IndexLauncher& launcher);
  /// Launch + wait for the ack; throws ServiceError on a typed reject.
  void launch_checked(const IndexLauncher& launcher);

  /// Single-task variants.
  uint64_t single(const TaskLauncher& launcher);
  void single_checked(const TaskLauncher& launcher);

  /// Fill a field of a (root) region; waits for the ack.
  void fill(RegionId r, FieldId f, const void* pattern, std::size_t size);
  template <typename T>
  void fill(RegionId r, FieldId f, const T& value) {
    fill(r, f, &value, sizeof(T));
  }

  /// Block until the ack for `tag` arrives (pumping other frames). Throws
  /// ServiceError when a fence issued after `tag` already consumed it.
  LaunchAck await_ack(uint64_t tag);

  /// Quiesce this session's launches server-side; returns the session-scoped
  /// cumulative FaultReport. Consumes the acks of every earlier launch: a
  /// launch's rejection still counts in rejects().
  FaultReport fence();

  /// Fetch the raw bytes of `field` of root region `r` (server fences
  /// first, so all acknowledged launches are visible).
  std::vector<std::byte> read_field(RegionId r, FieldId f);

  /// Orderly session end: waits for the server's kByeAck.
  void goodbye();

  /// Launch-class requests sent but not yet acknowledged.
  std::size_t outstanding() const { return outstanding_; }
  /// Non-kOk launch acks observed so far (quota trips, backend refusals).
  uint64_t rejects() const { return rejects_; }

 private:
  void send_frame(Msg type, const std::vector<std::byte>& payload);
  net::Frame next_frame();
  /// Read and dispatch one frame into the pending-reply tables.
  void pump_one();

  net::Socket sock_;
  net::FrameReader reader_;
  Welcome welcome_;
  std::map<std::string, TaskFnId> task_index_;

  RegionForest mirror_;
  std::size_t setup_sent_ = 0;  ///< journal ops already flushed

  uint64_t next_tag_ = 1;
  std::size_t outstanding_ = 0;
  uint64_t rejects_ = 0;
  std::map<uint64_t, LaunchAck> acks_;
  uint64_t fenced_below_ = 0;  ///< acks of lower tags were consumed by a fence
  std::map<uint64_t, SetupAck> setup_acks_;
  std::map<uint64_t, FenceAck> fence_acks_;
  std::map<uint64_t, Data> datas_;
  bool bye_acked_ = false;
};

}  // namespace idxl::service
