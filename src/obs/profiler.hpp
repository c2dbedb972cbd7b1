#pragma once

#include "obs/event_log.hpp"

namespace idxl {

/// The event log under the name its span views were first published as.
using Profiler = obs::EventLog;

}  // namespace idxl
