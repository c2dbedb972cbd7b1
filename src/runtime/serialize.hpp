#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/types.hpp"

namespace idxl {

/// Every serialized descriptor opens with a 5-byte header: a magic word
/// identifying the stream as an idxl descriptor and a version byte bumped on
/// any incompatible layout change. Deserializers reject mismatches up front
/// with a targeted error instead of misparsing the payload — required before
/// descriptors cross process boundaries (src/net frames carry their own
/// transport-level magic; this one covers the descriptor payload itself).
inline constexpr uint32_t kWireMagic = 0x4C584449;  // "IDXL", little-endian
inline constexpr uint8_t kWireVersion = 9;  // v9: no group-fallback
                                            // lifecycle kind (telemetry
                                            // carries kinds as raw bytes);
                                            // v8: task-done as slices,
                                            // metrics in a fence-ack only
                                            // when the fence asks (v7:
                                            // fence-ack counters in its
                                            // metrics snapshot, telemetry as
                                            // RankTrace/RankStall; v6: no
                                            // routing directive, no
                                            // Hello::p2p; v5: no analysis
                                            // payload on launchers; v4: trace
                                            // context; v3: RegionData)

/// Wire format for launch descriptors.
///
/// The paper's central representation claim is that an index launch is an
/// O(1) description of |D| tasks: what travels through the runtime (and, in
/// the non-DCR pipeline, over the broadcast tree) is a fixed-size
/// descriptor — domain bounds, task id, and per-argument
/// ⟨partition, functor, privilege⟩ tuples — never per-task state. This
/// serializer makes that claim concrete and testable: for dense launch
/// domains the encoded size is independent of the domain volume
/// (tests assert it), and it is what the slice messages of the simulator's
/// distribution stage are sized from.
///
/// Sparse launch domains (DOM wavefronts) encode their point lists — an
/// O(|D|) payload by necessity; the compact form applies to the dense case,
/// exactly as in Legion.

/// Append-only byte sink with primitive encoders.
class Serializer {
 public:
  void put_u8(uint8_t v) { bytes_.push_back(static_cast<std::byte>(v)); }
  void put_u32(uint32_t v);
  void put_u64(uint64_t v) { put_i64(static_cast<int64_t>(v)); }
  void put_i64(int64_t v);
  void put_f64(double v);
  void put_point(const Point& p);
  /// Length-prefixed (u32) byte blob / UTF-8 string.
  void put_blob(const std::vector<std::byte>& blob);
  void put_string(const std::string& s);
  /// The 5-byte ⟨magic, version⟩ descriptor header.
  void put_header();

  const std::vector<std::byte>& bytes() const { return bytes_; }
  std::size_t size() const { return bytes_.size(); }
  std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  std::vector<std::byte> bytes_;
};

/// Cursor-based reader; throws RuntimeError on truncated input.
class Deserializer {
 public:
  explicit Deserializer(const std::vector<std::byte>& bytes) : bytes_(&bytes) {}

  uint8_t get_u8();
  uint32_t get_u32();
  uint64_t get_u64() { return static_cast<uint64_t>(get_i64()); }
  int64_t get_i64();
  double get_f64();
  Point get_point();
  std::vector<std::byte> get_blob();
  std::string get_string();
  /// Consume the descriptor header; throws RuntimeError naming `what` on a
  /// magic or version mismatch.
  void check_header(const char* what);
  bool done() const { return cursor_ == bytes_->size(); }

 private:
  const std::vector<std::byte>* bytes_;
  std::size_t cursor_ = 0;
};

/// Encode / decode projection-functor expression trees. Opaque functors are
/// not serializable (they are process-local callables) — IDXL_REQUIREd out.
void serialize_expr(Serializer& s, const Expr& e);
ExprPtr deserialize_expr(Deserializer& d);

void serialize_domain(Serializer& s, const Domain& domain);
Domain deserialize_domain(Deserializer& d);

/// Encode the full index-launch descriptor (task, domain, args; scalar
/// argument bytes are included verbatim). The encoding opens with the
/// ⟨magic, version⟩ header; deserialize_launcher rejects mismatches.
std::vector<std::byte> serialize_launcher(const IndexLauncher& launcher);
IndexLauncher deserialize_launcher(const std::vector<std::byte>& bytes);

/// Single-task launcher descriptor (concrete regions instead of projected
/// partitions), used by the distributed runtime to replicate fills and other
/// single launches. Same header/versioning rules as the index form.
std::vector<std::byte> serialize_task_launcher(const TaskLauncher& launcher);
TaskLauncher deserialize_task_launcher(const std::vector<std::byte>& bytes);

/// Fault records cross process boundaries at fences: every rank serializes
/// its FaultReport and the driver verifies the replicated reports agree.
void serialize_fault(Serializer& s, const TaskFault& fault);
TaskFault deserialize_fault(Deserializer& d);
std::vector<std::byte> serialize_fault_report(const FaultReport& report);
FaultReport deserialize_fault_report(const std::vector<std::byte>& bytes);

}  // namespace idxl
