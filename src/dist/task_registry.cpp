#include "dist/task_registry.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "runtime/api.hpp"
#include "support/error.hpp"

namespace idxl::dist {

namespace {

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, TaskFn> tasks;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

}  // namespace

void register_named_task(const std::string& name, TaskFn fn) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  const bool inserted = r.tasks.emplace(name, std::move(fn)).second;
  IDXL_REQUIRE(inserted, "task name registered twice: " + name);
}

const TaskFn* find_named_task(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.tasks.find(name);
  return it == r.tasks.end() ? nullptr : &it->second;
}

std::vector<std::pair<std::string, TaskFn>> all_named_tasks() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::pair<std::string, TaskFn>> out(r.tasks.begin(), r.tasks.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

namespace detail {
TaskRegistration::TaskRegistration(const char* name, TaskFn fn) {
  register_named_task(name, std::move(fn));
}
}  // namespace detail

namespace {

// Registered here — the one translation unit every binary that touches the
// registry links — so archive linking cannot drop the registration.
// Fork-mode children inherit the fill through the driver's task table;
// exec-mode daemons resolve it by name like any user task.
IDXL_DIST_REGISTER_TASK(idxl_dist_fill, fill_task_body);

// The delta-transfer task is deliberately a no-op: it exists to occupy a
// replicated slot in every rank's task graph (ordered after the producer
// and before the consumer by its region argument). The data movement
// happens in the distributed runtime's on_task_success hook on the source
// rank, which extracts the routed rect and ships it as kRegionData.
void dist_xfer_body(TaskContext&) {}

IDXL_DIST_REGISTER_TASK(idxl_xfer, dist_xfer_body);

}  // namespace

}  // namespace idxl::dist
