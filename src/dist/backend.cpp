#include "dist/backend.hpp"

#include <cstdlib>

#include "support/env.hpp"

namespace idxl::dist {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kLocal: return "local";
    case Backend::kSharded: return "sharded";
    case Backend::kDist: return "dist";
  }
  return "unknown";
}

std::unique_ptr<RuntimeApi> make_runtime(BackendConfig config) {
  Backend backend = config.backend;
  if (const char* env = std::getenv("IDXL_BACKEND");
      env != nullptr && *env != '\0') {
    const std::string name(env);
    if (name == "local") backend = Backend::kLocal;
    else if (name == "sharded") backend = Backend::kSharded;
    else if (name == "dist") backend = Backend::kDist;
    else throw RuntimeError("IDXL_BACKEND must be local, sharded or dist (got '" +
                            name + "')");
  }
  switch (backend) {
    case Backend::kLocal:
      return std::make_unique<Runtime>(config.runtime);
    case Backend::kSharded:
    case Backend::kDist: {
      DistConfig dc = config.dist;
      dc.runtime = config.runtime;
      dc.ranks = env_u32("IDXL_DIST_RANKS", dc.ranks);
      dc.in_process = backend == Backend::kSharded;
      return std::make_unique<DistributedRuntime>(std::move(dc));
    }
  }
  throw RuntimeError("unreachable backend");
}

}  // namespace idxl::dist
