#pragma once

#include <memory>
#include <string>

#include "dist/dist_runtime.hpp"

namespace idxl::dist {

/// The three RuntimeApi backends (docs/DISTRIBUTED.md):
///  * kLocal — one process, one thread pool (Runtime).
///  * kSharded — control replication over in-process ranks: a
///    DistributedRuntime whose worker ranks are threads of this process.
///  * kDist — control replication over forked processes or remote daemons
///    (DistributedRuntime).
enum class Backend { kLocal, kSharded, kDist };

const char* backend_name(Backend b);

struct BackendConfig {
  Backend backend = Backend::kLocal;
  /// Local runtime configuration; the replicated backends give every rank
  /// this runtime configuration.
  RuntimeConfig runtime;
  /// Rank count and data plane for the replicated backends (IDXL_DIST_RANKS
  /// overrides the rank count); dist.runtime is replaced by `runtime` above
  /// and dist.in_process by the backend choice.
  DistConfig dist;
};

/// Construct the backend `config` selects, with environment overrides:
/// IDXL_BACKEND=local|sharded|dist picks the backend and IDXL_DIST_RANKS
/// sizes the replicated ones. Workloads written against RuntimeApi run
/// unmodified under any of the three — the env vars are the switch.
std::unique_ptr<RuntimeApi> make_runtime(BackendConfig config = {});

}  // namespace idxl::dist
