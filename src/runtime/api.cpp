#include "runtime/api.hpp"

#include <cstring>

namespace idxl {

double Future::resolve() const {
  IDXL_REQUIRE(valid(), "resolve() on an empty Future");
  IDXL_ASSERT(!state_->values.empty());
  double acc = state_->values.front();
  for (std::size_t i = 1; i < state_->values.size(); ++i)
    acc = apply_reduction(state_->op, acc, state_->values[i]);
  return acc;
}

FaultReport RuntimeApi::run(const std::function<void(RuntimeApi&)>& program) {
  program(*this);
  wait_all();
  return fault_report();
}

double RuntimeApi::get(const Future& future) {
  IDXL_REQUIRE(future.valid(), "get() on an empty Future");
  wait_all();
  return future.resolve();
}

void fill_task_body(TaskContext& ctx) {
  const auto& args = ctx.arg<FillArgs>();
  ctx.region(0).fill_bytes(args.field, args.pattern, args.size);
}

TaskLauncher make_fill_launcher(const RegionForest& forest, RegionId r, FieldId f,
                                const void* pattern, std::size_t size) {
  FillArgs args{};
  IDXL_REQUIRE(size > 0 && size <= sizeof(args.pattern), "fill pattern too large");
  IDXL_REQUIRE(forest.field(forest.region(r).fspace, f).size == size,
               "fill value type does not match the field size");
  args.field = f;
  args.size = size;
  std::memcpy(args.pattern, pattern, size);
  TaskLauncher launcher;
  launcher.scalar_args = ArgBuffer::of(args);
  launcher.args = {{r, {f}, Privilege::kWrite, ReductionOp::kNone}};
  return launcher;
}

}  // namespace idxl
