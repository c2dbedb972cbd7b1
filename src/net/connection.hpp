#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace idxl::net {

/// Observability wiring shared by every connection of one endpoint: the
/// `idxl_net_*` metric family, optional event-log records, and a
/// human-readable name per protocol message type (for metric labels).
struct NetObs {
  obs::MetricsRegistry* metrics = nullptr;
  obs::EventLog* log = nullptr;
  const char* (*type_name)(uint8_t type) = nullptr;
};

/// One peer connection: an async send queue drained by a dedicated sender
/// thread (so issuing threads never block on the kernel socket buffer) plus
/// a blocking receive loop, with per-message-type byte/frame counters.
///
/// Lifecycle: construct over a connected Socket; optionally start_recv();
/// send() until drain() (flush the queue, keep receiving) or close()
/// (teardown both directions). The destructor closes and joins.
class Connection {
 public:
  using FrameHandler = std::function<void(Frame&)>;
  /// Called once when the receive loop exits: `error` is empty on orderly
  /// peer shutdown, else the reason.
  using CloseHandler = std::function<void(const std::string& error)>;

  Connection(Socket sock, std::string peer, NetObs obs);
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  const std::string& peer() const { return peer_; }

  /// Enqueue one frame; the sender thread writes it out in FIFO order.
  /// Throws if the connection is already closed.
  void send(uint8_t type, const std::vector<std::byte>& payload);

  /// Run the receive loop on a background thread, one call per frame.
  void start_recv(FrameHandler on_frame, CloseHandler on_close = nullptr);

  /// Run the receive loop on the calling thread until the peer closes or an
  /// error tears the connection down. Returns the close reason ("" = clean).
  std::string recv_loop(const FrameHandler& on_frame);

  /// Block until every queued frame has been handed to the kernel.
  void drain();

  /// Drain, then shut both directions down and join the threads.
  void close();

  /// Shut down the read half only: a recv_loop blocked in recv() observes
  /// orderly EOF and returns cleanly. Safe to call from inside a frame
  /// handler (the worker's kShutdown path ends its own loop this way).
  void shutdown_read();

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Steady-clock nanosecond timestamp of the last received frame; 0
  /// until the first one. PeerMonitor reads this to detect hung peers.
  uint64_t last_recv_ns() const {
    return last_recv_ns_.load(std::memory_order_acquire);
  }

 private:
  void sender_main();
  void count(bool sent, uint8_t type, std::size_t bytes);

  Socket sock_;
  std::string peer_;
  NetObs obs_;

  std::mutex send_mu_;
  std::condition_variable send_cv_;
  std::condition_variable drained_cv_;
  std::deque<std::vector<std::byte>> send_queue_;
  bool stop_sender_ = false;
  bool sender_idle_ = true;

  std::thread sender_;
  /// Started by start_recv() and joined by close(), which may run on
  /// different threads (a service acceptor starts it, the scheduler closes).
  std::mutex recv_mu_;
  std::thread receiver_;
  std::atomic<bool> closed_{false};
  std::atomic<uint64_t> last_recv_ns_{0};

  obs::Gauge queue_depth_;
  std::mutex cells_mu_;
  struct DirCells {
    obs::Counter bytes;
    obs::Counter frames;
  };
  std::unordered_map<uint16_t, DirCells> cells_;  // key: type | (sent << 8)
};

/// Watchdog for a set of connections: a ping thread sends `ping_type`
/// frames every `period_ms`, and any peer silent for longer than
/// `stall_window_ms` raises `idxl_net_peer_stalls_total` and invokes the
/// callback (once per stall episode). Peers answering pings (or sending
/// anything at all) stay clear of the window. An optional payload provider
/// piggybacks data on each heartbeat — the clock probes (net/clock.hpp)
/// ride along this way, so offset estimation costs no extra frames.
class PeerMonitor {
 public:
  using StallHandler = std::function<void(const std::string& peer)>;
  using PingPayloadFn = std::function<std::vector<std::byte>()>;

  PeerMonitor(std::vector<Connection*> peers, uint8_t ping_type,
              uint32_t period_ms, uint32_t stall_window_ms,
              obs::MetricsRegistry* metrics, StallHandler on_stall,
              PingPayloadFn ping_payload = nullptr);
  ~PeerMonitor();

  void stop();

 private:
  void main();

  std::vector<Connection*> peers_;
  std::vector<bool> stalled_;
  uint8_t ping_type_;
  uint32_t period_ms_;
  uint32_t window_ms_;
  StallHandler on_stall_;
  PingPayloadFn ping_payload_;
  obs::Counter stalls_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace idxl::net
