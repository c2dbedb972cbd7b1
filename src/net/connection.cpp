#include "net/connection.hpp"

#include <sys/socket.h>

#include <chrono>

#include "support/error.hpp"

namespace idxl::net {

namespace {

uint64_t steady_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Connection::Connection(Socket sock, std::string peer, NetObs obs)
    : sock_(std::move(sock)), peer_(std::move(peer)), obs_(obs) {
  IDXL_REQUIRE(sock_.valid(), "Connection over an invalid socket");
  if (obs_.metrics != nullptr)
    queue_depth_ = obs_.metrics->gauge("idxl_net_send_queue_depth",
                                       "frames queued but not yet written",
                                       {{"peer", peer_}});
  sender_ = std::thread([this] { sender_main(); });
}

Connection::~Connection() { close(); }

void Connection::count(bool sent, uint8_t type, std::size_t bytes) {
  if (obs_.metrics != nullptr) {
    const uint16_t key = static_cast<uint16_t>(type) |
                         static_cast<uint16_t>(sent ? 0x100 : 0);
    DirCells* cells;
    {
      std::lock_guard<std::mutex> lock(cells_mu_);
      auto it = cells_.find(key);
      if (it == cells_.end()) {
        const char* tn =
            obs_.type_name != nullptr ? obs_.type_name(type) : "unknown";
        DirCells c;
        c.bytes = obs_.metrics->counter(
            sent ? "idxl_net_bytes_sent_total" : "idxl_net_bytes_recv_total",
            "frame bytes on the wire, header included",
            {{"peer", peer_}, {"type", tn}});
        c.frames = obs_.metrics->counter(
            sent ? "idxl_net_frames_sent_total" : "idxl_net_frames_recv_total",
            "frames on the wire", {{"peer", peer_}, {"type", tn}});
        it = cells_.emplace(key, c).first;
      }
      cells = &it->second;
    }
    cells->bytes.inc(bytes);
    cells->frames.inc();
  }
  if (obs_.log != nullptr) {
    // seq is the frame type, not a task — see the enum's doc comment.
    obs_.log->record({.seq = type,
                      .edge = bytes,
                      .kind = sent ? obs::LifecycleEvent::kNetSend
                                   : obs::LifecycleEvent::kNetRecv});
  }
}

void Connection::send(uint8_t type, const std::vector<std::byte>& payload) {
  std::vector<std::byte> wire = encode_frame(type, payload);
  count(/*sent=*/true, type, wire.size());
  {
    std::lock_guard<std::mutex> lock(send_mu_);
    IDXL_REQUIRE(!stop_sender_, "send() on a closed connection");
    send_queue_.push_back(std::move(wire));
    sender_idle_ = false;
    queue_depth_.add(1);
  }
  send_cv_.notify_one();
}

void Connection::sender_main() {
  for (;;) {
    std::vector<std::byte> wire;
    {
      std::unique_lock<std::mutex> lock(send_mu_);
      send_cv_.wait(lock, [&] { return stop_sender_ || !send_queue_.empty(); });
      if (send_queue_.empty()) {
        // stop requested and nothing left to flush
        sender_idle_ = true;
        drained_cv_.notify_all();
        return;
      }
      wire = std::move(send_queue_.front());
      send_queue_.pop_front();
      queue_depth_.sub(1);
    }
    try {
      sock_.write_all(wire.data(), wire.size());
    } catch (const std::exception&) {
      // Peer is gone; drop the rest of the queue so drain()/close() return.
      std::lock_guard<std::mutex> lock(send_mu_);
      queue_depth_.sub(static_cast<int64_t>(send_queue_.size()));
      send_queue_.clear();
      stop_sender_ = true;
      sender_idle_ = true;
      drained_cv_.notify_all();
      return;
    }
    std::lock_guard<std::mutex> lock(send_mu_);
    if (send_queue_.empty()) {
      sender_idle_ = true;
      drained_cv_.notify_all();
    }
  }
}

std::string Connection::recv_loop(const FrameHandler& on_frame) {
  FrameReader reader;
  Frame frame;
  std::vector<std::byte> buf(64 * 1024);
  try {
    for (;;) {
      const std::size_t n = sock_.read_some(buf.data(), buf.size());
      if (n == 0) {
        // EOF on a frame boundary is an orderly shutdown; EOF with a
        // partial frame buffered means the peer died mid-message.
        if (reader.pending_bytes() != 0)
          return "peer closed the connection mid-frame (" +
                 std::to_string(reader.pending_bytes()) +
                 " bytes of an incomplete frame)";
        return {};
      }
      reader.feed(buf.data(), n);
      while (reader.poll(frame)) {
        last_recv_ns_.store(steady_ns(), std::memory_order_release);
        count(/*sent=*/false, frame.type,
              kFrameHeaderSize + frame.payload.size());
        on_frame(frame);
      }
    }
  } catch (const std::exception& e) {
    return e.what();
  }
}

void Connection::start_recv(FrameHandler on_frame, CloseHandler on_close) {
  std::lock_guard<std::mutex> lock(recv_mu_);
  IDXL_REQUIRE(!receiver_.joinable(), "start_recv called twice");
  receiver_ = std::thread(
      [this, on_frame = std::move(on_frame), on_close = std::move(on_close)] {
        const std::string error = recv_loop(on_frame);
        if (on_close) on_close(error);
      });
}

void Connection::drain() {
  std::unique_lock<std::mutex> lock(send_mu_);
  drained_cv_.wait(lock, [&] { return sender_idle_; });
}

void Connection::shutdown_read() {
  if (sock_.valid()) ::shutdown(sock_.fd(), SHUT_RD);
}

void Connection::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) {
    // Second close: threads are already told to stop; just join.
  } else {
    {
      std::lock_guard<std::mutex> lock(send_mu_);
      stop_sender_ = true;
    }
    send_cv_.notify_all();
  }
  if (sender_.joinable()) sender_.join();
  // Shut down reads so a blocked recv() returns; full close happens in ~Socket.
  if (sock_.valid()) ::shutdown(sock_.fd(), SHUT_RDWR);
  std::thread receiver;
  {
    std::lock_guard<std::mutex> lock(recv_mu_);
    receiver = std::move(receiver_);
  }
  if (receiver.joinable()) receiver.join();
}

PeerMonitor::PeerMonitor(std::vector<Connection*> peers, uint8_t ping_type,
                         uint32_t period_ms, uint32_t stall_window_ms,
                         obs::MetricsRegistry* metrics, StallHandler on_stall,
                         PingPayloadFn ping_payload)
    : peers_(std::move(peers)),
      stalled_(peers_.size(), false),
      ping_type_(ping_type),
      period_ms_(period_ms),
      window_ms_(stall_window_ms),
      on_stall_(std::move(on_stall)),
      ping_payload_(std::move(ping_payload)) {
  if (metrics != nullptr)
    stalls_ = metrics->counter("idxl_net_peer_stalls_total",
                               "peers silent past the stall window");
  thread_ = std::thread([this] { main(); });
}

PeerMonitor::~PeerMonitor() { stop(); }

void PeerMonitor::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // already stopped
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void PeerMonitor::main() {
  const uint64_t window_ns = uint64_t{window_ms_} * 1'000'000;
  const uint64_t start_ns = steady_ns();
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(period_ms_),
                   [&] { return stop_; });
      if (stop_) return;
    }
    const uint64_t now = steady_ns();
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      Connection* c = peers_[i];
      if (c->closed()) continue;
      try {
        // A fresh payload per peer: clock probes stamp send time, so one
        // shared buffer would skew every peer after the first.
        c->send(ping_type_, ping_payload_ ? ping_payload_()
                                          : std::vector<std::byte>{});
      } catch (const std::exception&) {
        continue;  // connection tore down between the check and the send
      }
      // A peer that has never spoken is measured from monitor start.
      const uint64_t last = c->last_recv_ns();
      const uint64_t ref = last != 0 ? last : start_ns;
      const bool quiet = now > ref && now - ref > window_ns;
      if (quiet && !stalled_[i]) {
        stalled_[i] = true;
        stalls_.inc();
        if (on_stall_) on_stall_(c->peer());
      } else if (!quiet) {
        stalled_[i] = false;
      }
    }
  }
}

}  // namespace idxl::net
