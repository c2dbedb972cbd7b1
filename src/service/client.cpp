#include "service/client.hpp"

#include <utility>

#include "runtime/serialize.hpp"
#include "support/error.hpp"

namespace idxl::service {

ServiceClient ServiceClient::connect_tcp(const std::string& host, uint16_t port,
                                         ClientHello hello) {
  return ServiceClient(net::Socket::connect_tcp(host, port), std::move(hello));
}

ServiceClient ServiceClient::connect_unix(const std::string& path,
                                          ClientHello hello) {
  return ServiceClient(net::Socket::connect_unix(path), std::move(hello));
}

ServiceClient::ServiceClient(net::Socket sock, ClientHello hello)
    : sock_(std::move(sock)) {
  send_frame(Msg::kHello, encode_client_hello(hello));
  for (;;) {
    net::Frame f = next_frame();
    const Msg kind = static_cast<Msg>(f.type);
    if (kind == Msg::kPing) continue;
    if (kind == Msg::kError) {
      const ErrorMsg e = decode_error(f.payload);
      throw ServiceError(e.code, "session refused: " + e.message);
    }
    IDXL_REQUIRE(kind == Msg::kWelcome, "service handshake: unexpected frame");
    welcome_ = decode_welcome(f.payload);
    break;
  }
  for (std::size_t i = 0; i < welcome_.tasks.size(); ++i)
    task_index_.emplace(welcome_.tasks[i], static_cast<TaskFnId>(i));
}

TaskFnId ServiceClient::task_id(const std::string& name) const {
  auto it = task_index_.find(name);
  if (it == task_index_.end())
    throw ServiceError(Err::kUnknownTask, "task not exported: " + name);
  return it->second;
}

// --- mirror-forest setup --------------------------------------------------

IndexSpaceId ServiceClient::create_index_space(Domain domain) {
  return mirror_.create_index_space(std::move(domain));
}
FieldSpaceId ServiceClient::create_field_space() {
  return mirror_.create_field_space();
}
FieldId ServiceClient::allocate_field(FieldSpaceId fs, std::size_t size,
                                      std::string name) {
  return mirror_.allocate_field(fs, size, std::move(name));
}
PartitionId ServiceClient::create_partition(IndexSpaceId parent,
                                            const Rect& color_space,
                                            std::vector<Domain> subspaces,
                                            Disjointness d) {
  return mirror_.create_partition(parent, color_space, std::move(subspaces), d);
}
RegionId ServiceClient::create_region(IndexSpaceId is, FieldSpaceId fs) {
  return mirror_.create_region(is, fs);
}
RegionId ServiceClient::subregion(RegionId parent, PartitionId p,
                                  const Point& color) {
  return mirror_.subregion(parent, p, color);
}

void ServiceClient::flush_setup() {
  const std::vector<SetupOp>& journal = mirror_.setup_journal();
  if (setup_sent_ == journal.size()) return;
  const std::vector<SetupOp> batch(journal.begin() + setup_sent_,
                                   journal.end());
  const uint64_t tag = next_tag_++;
  send_frame(Msg::kSetup, encode_tagged(tag, encode_setup_ops(batch)));
  while (setup_acks_.find(tag) == setup_acks_.end()) pump_one();
  SetupAck ack = std::move(setup_acks_[tag]);
  setup_acks_.erase(tag);
  if (ack.code != Err::kOk)
    throw ServiceError(ack.code, "setup rejected: " + ack.error);
  setup_sent_ = journal.size();
}

// --- launches -------------------------------------------------------------

uint64_t ServiceClient::launch(const IndexLauncher& launcher) {
  flush_setup();
  const uint64_t tag = next_tag_++;
  send_frame(Msg::kLaunch, encode_tagged(tag, serialize_launcher(launcher)));
  ++outstanding_;
  return tag;
}

void ServiceClient::launch_checked(const IndexLauncher& launcher) {
  const LaunchAck ack = await_ack(launch(launcher));
  if (ack.code != Err::kOk)
    throw ServiceError(ack.code, "launch rejected: " + ack.error);
}

uint64_t ServiceClient::single(const TaskLauncher& launcher) {
  flush_setup();
  const uint64_t tag = next_tag_++;
  send_frame(Msg::kSingle,
             encode_tagged(tag, serialize_task_launcher(launcher)));
  ++outstanding_;
  return tag;
}

void ServiceClient::single_checked(const TaskLauncher& launcher) {
  const LaunchAck ack = await_ack(single(launcher));
  if (ack.code != Err::kOk)
    throw ServiceError(ack.code, "launch rejected: " + ack.error);
}

void ServiceClient::fill(RegionId r, FieldId f, const void* pattern,
                         std::size_t size) {
  flush_setup();
  Fill msg;
  msg.tag = next_tag_++;
  msg.region = r.id;
  msg.field = f;
  msg.pattern.assign(static_cast<const std::byte*>(pattern),
                     static_cast<const std::byte*>(pattern) + size);
  send_frame(Msg::kFill, encode_fill(msg));
  ++outstanding_;
  const LaunchAck ack = await_ack(msg.tag);
  if (ack.code != Err::kOk)
    throw ServiceError(ack.code, "fill rejected: " + ack.error);
}

LaunchAck ServiceClient::await_ack(uint64_t tag) {
  if (tag < fenced_below_)
    throw ServiceError(Err::kBadMessage,
                       "ack of tag " + std::to_string(tag) + " was consumed by a fence");
  while (acks_.find(tag) == acks_.end()) pump_one();
  LaunchAck ack = std::move(acks_[tag]);
  acks_.erase(tag);
  return ack;
}

FaultReport ServiceClient::fence() {
  flush_setup();
  const uint64_t tag = next_tag_++;
  send_frame(Msg::kFence, encode_fence(tag));
  while (fence_acks_.find(tag) == fence_acks_.end()) pump_one();
  FenceAck ack = std::move(fence_acks_[tag]);
  fence_acks_.erase(tag);
  // The server answers one connection in order: rejects before it reads
  // the fence frame, admitted items in session order. Every launch issued
  // before this fence is acknowledged by now, so its ack is consumed here;
  // a launch() + fence() loop that never awaits would otherwise keep one
  // per launch for the session's life.
  acks_.erase(acks_.begin(), acks_.lower_bound(tag));
  fenced_below_ = tag;
  return std::move(ack.report);
}

std::vector<std::byte> ServiceClient::read_field(RegionId r, FieldId f) {
  flush_setup();
  ReadReq req;
  req.tag = next_tag_++;
  req.region = r.id;
  req.field = f;
  send_frame(Msg::kRead, encode_read(req));
  while (datas_.find(req.tag) == datas_.end()) pump_one();
  Data d = std::move(datas_[req.tag]);
  datas_.erase(req.tag);
  if (d.code != Err::kOk)
    throw ServiceError(d.code, "read rejected: " + d.error);
  return std::move(d.bytes);
}

void ServiceClient::goodbye() {
  send_frame(Msg::kGoodbye, {});
  while (!bye_acked_) pump_one();
}

// --- wire plumbing --------------------------------------------------------

void ServiceClient::send_frame(Msg type, const std::vector<std::byte>& payload) {
  const std::vector<std::byte> wire =
      net::encode_frame(static_cast<uint8_t>(type), payload);
  sock_.write_all(wire.data(), wire.size());
}

net::Frame ServiceClient::next_frame() {
  net::Frame f;
  while (!reader_.poll(f)) {
    std::byte buf[16384];
    const std::size_t n = sock_.read_some(buf, sizeof(buf));
    if (n == 0)
      throw ServiceError(Err::kEvicted, "server closed the connection");
    reader_.feed(buf, n);
  }
  return f;
}

void ServiceClient::pump_one() {
  net::Frame f = next_frame();
  switch (static_cast<Msg>(f.type)) {
    case Msg::kLaunchAck: {
      LaunchAck ack = decode_launch_ack(f.payload);
      if (outstanding_ > 0) --outstanding_;
      if (ack.code != Err::kOk) ++rejects_;
      acks_.emplace(ack.tag, std::move(ack));
      break;
    }
    case Msg::kSetupAck: {
      SetupAck ack = decode_setup_ack(f.payload);
      setup_acks_.emplace(ack.tag, std::move(ack));
      break;
    }
    case Msg::kFenceAck: {
      FenceAck ack = decode_fence_ack(f.payload);
      fence_acks_.emplace(ack.tag, std::move(ack));
      break;
    }
    case Msg::kData: {
      Data d = decode_data(f.payload);
      datas_.emplace(d.tag, std::move(d));
      break;
    }
    case Msg::kByeAck:
      bye_acked_ = true;
      break;
    case Msg::kError: {
      const ErrorMsg e = decode_error(f.payload);
      throw ServiceError(e.code, e.message.empty() ? err_name(e.code)
                                                   : e.message);
    }
    case Msg::kPing:
      break;
    default:
      throw ServiceError(Err::kBadMessage, "unexpected frame from server");
  }
}

}  // namespace idxl::service
