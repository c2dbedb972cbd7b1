#pragma once

#include <cstdlib>
#include <vector>

#include "runtime/api.hpp"

namespace idxl::apps {

/// Configuration of the PRK-style 2-D star stencil (Van der Wijngaart &
/// Mattson [30], §6.1): out += W ⊛ in over a block-partitioned grid with
/// aliased halo partitions, followed by the PRK "in += 1" increment.
struct StencilParams {
  int64_t nx = 64, ny = 64;   ///< grid cells
  int64_t px = 2, py = 2;     ///< processor (task) grid
  int64_t radius = 2;         ///< star stencil radius
  int iterations = 4;
};

/// Two index launches per iteration, both with identity functors (the
/// paper's statically verified case):
///   stencil    reads `in` through the halo partition, read-writes `out`
///              through the disjoint block partition
///   increment  read-writes `in` through the block partition
class StencilApp {
 public:
  /// Backend-independent: runs unmodified on the local, sharded and
  /// distributed backends (construct `rt` via dist::make_runtime).
  StencilApp(RuntimeApi& rt, const StencilParams& params);

  bool run_iteration();
  void run(int iterations);

  std::vector<double> output();  ///< row-major `out` field
  std::vector<double> input();   ///< row-major `in` field

  /// Serial reference of the same computation.
  static std::vector<double> reference_output(const StencilParams& params,
                                              int iterations);

 private:
  RuntimeApi& rt_;
  StencilParams params_;
  RegionId grid_;
  PartitionId blocks_;
  PartitionId halos_;
  FieldId f_in_ = 0, f_out_ = 0;
  TaskFnId t_stencil_ = 0, t_increment_ = 0;
};

/// Star-stencil weight of the neighbour `offset` cells away on either axis
/// (PRK normalization: 1 / (2 * |offset| * radius), signed like `offset`).
inline double stencil_weight(int64_t offset, int64_t radius) {
  IDXL_ASSERT(offset != 0 && std::abs(offset) <= radius);
  return 1.0 / (2.0 * static_cast<double>(std::abs(offset)) *
                static_cast<double>(radius)) *
         (offset > 0 ? 1.0 : -1.0);
}

/// Scalar arguments of the stencil task bodies. Trivially copyable, so a
/// launch can ship them by value (ArgBuffer::of) to capture-free bodies
/// registered by name (dist/smoke_tasks.hpp).
struct StencilArgs {
  FieldId fin = 0;
  FieldId fout = 1;
  int64_t radius = 1;
  int64_t nx = 0;
  int64_t ny = 0;
};

/// The star-stencil task body, over runs. Region 0 views `fin` over the
/// block grown by `radius` (read); region 1 is the block of `fout`
/// (read-write). Cells within `radius` of the nx x ny grid's edge are left
/// alone (PRK). Each output run is clipped to the interior and read with
/// the 1 + 2 * radius input runs it needs; every cell adds its terms in
/// reference_output's order, so the result is bit-identical to it.
void stencil_body(TaskContext& ctx, const StencilArgs& args);

/// The PRK increment `fin += 1` over region 0 (read-write), one run at a
/// time. Works on any dimension and on sparse views.
void increment_body(TaskContext& ctx, FieldId fin);

}  // namespace idxl::apps
