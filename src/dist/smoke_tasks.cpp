#include "dist/smoke_tasks.hpp"

#include "dist/task_registry.hpp"

namespace idxl::dist::smoke {

void stencil_body(TaskContext& ctx) { apps::stencil_body(ctx, ctx.arg<StencilArgs>()); }

void increment_body(TaskContext& ctx) { apps::increment_body(ctx, ctx.arg<StencilArgs>().fin); }

IDXL_DIST_REGISTER_TASK(smoke_stencil, stencil_body);
IDXL_DIST_REGISTER_TASK(smoke_increment, increment_body);

}  // namespace idxl::dist::smoke
