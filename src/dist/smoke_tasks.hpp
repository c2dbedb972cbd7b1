#pragma once

#include "apps/stencil.hpp"

namespace idxl::dist::smoke {

/// Scalar arguments of the smoke-test stencil tasks, shipped by value with
/// every launch so the bodies are capture-free and can be registered in
/// idxl-noded's named-task registry.
using StencilArgs = apps::StencilArgs;

/// apps::stencil_body with its arguments from the launch's scalars: region
/// 0 = halo view of `fin` (read), region 1 = disjoint block of `fout`
/// (read-write). Registered as "smoke_stencil".
void stencil_body(TaskContext& ctx);

/// apps::increment_body on `fin`: region 0 = any view of `fin`
/// (read-write). Registered as "smoke_increment".
void increment_body(TaskContext& ctx);

}  // namespace idxl::dist::smoke
