#include "runtime/runtime.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>

#include "support/env.hpp"

namespace idxl {

namespace {

using obs::LifecycleEvent;
using LogScope = obs::EventLog::Scope;

bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return !(v[0] == '0' || v[0] == 'n' || v[0] == 'N' || v[0] == 'f' || v[0] == 'F');
}

/// IDXL_* environment overrides for the observability knobs, so a hung
/// production run can be re-launched with a watchdog (or the event log
/// resized) without a rebuild. Documented in docs/OBSERVABILITY.md.
RuntimeConfig apply_env_overrides(RuntimeConfig cfg) {
  cfg.enable_flight_recorder =
      env_flag("IDXL_FLIGHT_RECORDER", cfg.enable_flight_recorder);
  if (const uint32_t cap = env_u32("IDXL_FLIGHT_CAPACITY", 0); cap != 0)
    cfg.flight_recorder_capacity = cap;
  cfg.enable_watchdog = env_flag("IDXL_WATCHDOG", cfg.enable_watchdog);
  obs::WatchdogConfig& wd = cfg.watchdog;
  wd.check_period_ms = env_u32("IDXL_WATCHDOG_PERIOD_MS", wd.check_period_ms);
  wd.stall_window_ms = env_u32("IDXL_WATCHDOG_WINDOW_MS", wd.stall_window_ms);
  wd.abort_on_stall = env_flag("IDXL_WATCHDOG_ABORT", wd.abort_on_stall);
  wd.cancel_on_stall = env_flag("IDXL_WATCHDOG_CANCEL", wd.cancel_on_stall);
  if (const char* v = std::getenv("IDXL_WATCHDOG_DUMP")) wd.dump_path = v;
  if (auto plan = FaultPlan::from_env()) cfg.fault_plan = std::move(plan);
  return cfg;
}

obs::LifecycleDetail detail_of(FaultKind kind) {
  switch (kind) {
    case FaultKind::kException: return obs::LifecycleDetail::kException;
    case FaultKind::kExplicit: return obs::LifecycleDetail::kExplicitFail;
    case FaultKind::kInjected: return obs::LifecycleDetail::kInjected;
    case FaultKind::kTimeout: return obs::LifecycleDetail::kTimeout;
    case FaultKind::kCancelled: return obs::LifecycleDetail::kCancel;
    default: return obs::LifecycleDetail::kNone;
  }
}

obs::LifecycleDetail detail_of(SafetyOutcome outcome) {
  switch (outcome) {
    case SafetyOutcome::kSafeStatic: return obs::LifecycleDetail::kSafeStatic;
    case SafetyOutcome::kSafeDynamic: return obs::LifecycleDetail::kSafeDynamic;
    case SafetyOutcome::kSafeUnchecked: return obs::LifecycleDetail::kSafeUnchecked;
    case SafetyOutcome::kUnsafe: return obs::LifecycleDetail::kUnsafe;
  }
  return obs::LifecycleDetail::kNone;
}

}  // namespace

Runtime::Runtime(RuntimeConfig config, std::shared_ptr<RegionForest> forest)
    : config_(apply_env_overrides(std::move(config))),
      forest_(forest != nullptr ? std::move(forest)
                                : std::make_shared<RegionForest>()),
      tracker_(*forest_),
      event_log_(config_.enable_profiling         ? obs::LogMode::kCapture
                 : config_.enable_flight_recorder ? obs::LogMode::kBounded
                                                  : obs::LogMode::kOff,
                 config_.flight_recorder_capacity),
      log_(event_log_.enabled() ? &event_log_ : nullptr),
      pool_(std::make_unique<ThreadPool>(config_.workers)),
      live_enabled_(config_.enable_watchdog),
      fault_plan_(config_.fault_plan) {
  init_metrics();
  if (config_.enable_watchdog) {
    watchdog_ = std::make_unique<obs::Watchdog>(
        config_.watchdog,
        [this] {
          const uint64_t done = cells_.tasks_completed.value();
          return std::pair<uint64_t, uint64_t>(
              done, cells_.point_tasks.value() - done);
        },
        [this] {
          if (log_ != nullptr) log_->record({.kind = LifecycleEvent::kStall});
          return stall_report();
        });
    watchdog_->set_stall_action([this] { cancel_all(); });
    watchdog_->start();
  }
}

void Runtime::cancel_all() { cancel_all_.store(true, std::memory_order_release); }

void Runtime::clear_faults() {
  faults_.clear();
  cancel_all_.store(false, std::memory_order_release);
}

Runtime::~Runtime() {
  if (watchdog_ != nullptr) watchdog_->stop();
  wait_all();
}

/// Counter rows name the StatsCells handle the runtime increments; gauge
/// rows name the externally owned value (tracker, caches, pool, event
/// log) a collector copies in at snapshot time.
struct Runtime::StatRow {
  const char* series;
  const char* help;                  ///< recorded from a family's first row
  uint64_t RuntimeStats::*field;     ///< nullptr: exported only
  obs::Counter StatsCells::*cell;    ///< counter rows
  uint64_t (*read)(const Runtime&);  ///< gauge rows
  const char* label_key = nullptr;   ///< nullptr: unlabeled series
  const char* label_value = nullptr;

  obs::Labels labels() const {
    return label_key != nullptr ? obs::Labels{{label_key, label_value}} : obs::Labels{};
  }
};

std::span<const Runtime::StatRow> Runtime::stat_rows() {
  using S = RuntimeStats;
  using C = StatsCells;
  const auto counter = [](const char* series, const char* help, uint64_t S::*field,
                          obs::Counter C::*cell, const char* key = nullptr,
                          const char* value = nullptr) {
    return StatRow{series, help, field, cell, nullptr, key, value};
  };
  const auto gauge = [](const char* series, const char* help, uint64_t S::*field,
                        uint64_t (*read)(const Runtime&)) {
    return StatRow{series, help, field, nullptr, read};
  };
  const char* safety = "index-launch safety verdicts by outcome";
  const char* faults = "terminally failed tasks by root cause";
  // Registration order is exposition order: keep counters, then gauges.
  static const StatRow rows[] = {
      counter("idxl_runtime_calls_total", "task issuance API calls", &S::runtime_calls,
              &C::runtime_calls),
      counter("idxl_launches_total", "launches by kind", &S::single_launches,
              &C::single_launches, "kind", "single"),
      counter("idxl_launches_total", "", &S::index_launches, &C::index_launches, "kind",
              "index"),
      counter("idxl_point_tasks_total", "point tasks issued", &S::point_tasks,
              &C::point_tasks),
      counter("idxl_tasks_completed_total", "task bodies completed", &S::tasks_completed,
              &C::tasks_completed),
      counter("idxl_tasks_inline_total",
              "tasks started by the worker whose completion readied them",
              &S::tasks_inline, &C::tasks_inline),
      counter("idxl_dependence_edges_total", "dependence edges discovered",
              &S::dependence_edges, &C::dependence_edges),
      counter("idxl_launch_safety_total", safety, &S::launches_safe_static,
              &C::safe_static, "outcome", "safe_static"),
      counter("idxl_launch_safety_total", safety, &S::launches_safe_dynamic,
              &C::safe_dynamic, "outcome", "safe_dynamic"),
      counter("idxl_launch_safety_total", safety, &S::launches_safe_unchecked,
              &C::safe_unchecked, "outcome", "safe_unchecked"),
      counter("idxl_launch_safety_total", safety, &S::launches_assumed_verified,
              &C::assumed_verified, "outcome", "assumed_verified"),
      counter("idxl_launch_safety_total", safety, &S::launches_unsafe, &C::unsafe,
              "outcome", "unsafe"),
      counter("idxl_dynamic_check_points_total", "functor evaluations in dynamic checks",
              &S::dynamic_check_points, &C::dynamic_check_points),
      counter("idxl_traced_tasks_replayed_total", "tasks replayed from captured traces",
              &S::traced_tasks_replayed, &C::traced_replayed),
      counter("idxl_verdict_cache_launches_total", "launches by verdict-cache result",
              &S::verdict_cache_hits, &C::cache_hit_launches, "result", "hit"),
      counter("idxl_verdict_cache_launches_total", "", &S::verdict_cache_misses,
              &C::cache_miss_launches, "result", "miss"),
      counter("idxl_fault_tasks_total", faults, &S::tasks_failed, &C::fault_exception,
              "kind", "exception"),
      counter("idxl_fault_tasks_total", "", &S::tasks_failed, &C::fault_explicit, "kind",
              "explicit"),
      counter("idxl_fault_tasks_total", "", &S::tasks_failed, &C::fault_injected, "kind",
              "injected"),
      counter("idxl_fault_tasks_total", "", &S::tasks_failed, &C::fault_timeout, "kind",
              "timeout"),
      counter("idxl_fault_tasks_total", "", &S::tasks_failed, &C::fault_cancelled, "kind",
              "cancelled"),
      counter("idxl_fault_poisoned_total",
              "tasks skipped because an upstream failure poisoned them", &S::tasks_poisoned,
              &C::fault_poisoned),
      counter("idxl_fault_injections_total", "FaultPlan injections fired",
              &S::fault_injections, &C::fault_injections),
      counter("idxl_retry_attempts_total", "failed attempts re-enqueued",
              &S::retry_attempts, &C::retry_attempts),
      counter("idxl_retry_succeeded_total", "tasks that succeeded after at least one retry",
              &S::retries_succeeded, &C::retry_succeeded),
      gauge("idxl_dependence_tests", "per-use conflict tests (live)", &S::dependence_tests,
            [](const Runtime& rt) { return rt.tracker_.dependence_tests(); }),
      gauge("idxl_verdict_cache_hits", "verdict cache lookup hits", nullptr,
            [](const Runtime& rt) { return rt.verdict_cache_.counters().hits; }),
      gauge("idxl_verdict_cache_misses", "verdict cache lookup misses", nullptr,
            [](const Runtime& rt) { return rt.verdict_cache_.counters().misses; }),
      gauge("idxl_verdict_cache_uncacheable", "lookups skipped (opaque functor)", nullptr,
            [](const Runtime& rt) { return rt.verdict_cache_.counters().uncacheable; }),
      gauge("idxl_verdict_cache_entries", "verdicts currently cached", nullptr,
            [](const Runtime& rt) { return uint64_t{rt.verdict_cache_.size()}; }),
      gauge("idxl_pool_queue_depth", "ready tasks waiting for a worker", nullptr,
            [](const Runtime& rt) { return uint64_t{rt.pool_->queue_depth()}; }),
      gauge("idxl_pool_executing", "tasks mid-execution on workers", nullptr,
            [](const Runtime& rt) { return uint64_t{rt.pool_->executing()}; }),
      gauge("idxl_pool_workers", "worker threads", nullptr,
            [](const Runtime& rt) { return uint64_t{rt.pool_->worker_count()}; }),
      gauge("idxl_flight_recorder_events", "lifecycle events recorded (monotone)", nullptr,
            [](const Runtime& rt) { return rt.event_log_.recorded(); }),
      gauge("idxl_flight_recorder_overwritten", "lifecycle events lost to ring wraparound",
            nullptr, [](const Runtime& rt) { return rt.event_log_.overwritten(); }),
  };
  return rows;
}

void Runtime::init_metrics() {
  obs::MetricsRegistry& m = metrics_;
  for (const StatRow& r : stat_rows())
    if (r.cell != nullptr) cells_.*r.cell = m.counter(r.series, r.help, r.labels());
  cells_.task_duration =
      m.histogram("idxl_task_duration_ns", "task body execution time");
  cells_.queue_wait =
      m.histogram("idxl_task_queue_wait_ns", "ready -> running scheduler latency");
  std::vector<std::pair<obs::Gauge, uint64_t (*)(const Runtime&)>> gauges;
  for (const StatRow& r : stat_rows())
    if (r.read != nullptr) gauges.emplace_back(m.gauge(r.series, r.help), r.read);
  m.add_collector([this, gauges = std::move(gauges)] {
    for (const auto& [g, read] : gauges) g.set(static_cast<int64_t>(read(*this)));
  });
}

RuntimeStats Runtime::stats() const {
  const obs::MetricsSnapshot snap = metrics_.snapshot();
  RuntimeStats s;
  for (const StatRow& r : stat_rows())
    if (r.field != nullptr) s.*r.field += snap.value(r.series, r.labels());
  return s;
}

obs::Counter& Runtime::fault_cell(FaultKind kind) {
  switch (kind) {
    case FaultKind::kException: return cells_.fault_exception;
    case FaultKind::kExplicit: return cells_.fault_explicit;
    case FaultKind::kInjected: return cells_.fault_injected;
    case FaultKind::kTimeout: return cells_.fault_timeout;
    case FaultKind::kCancelled: return cells_.fault_cancelled;
    default: return cells_.fault_poisoned;
  }
}

obs::StallReport Runtime::stall_report() const {
  obs::StallReport report;
  report.completed = cells_.tasks_completed.value();
  report.pending = cells_.point_tasks.value() - report.completed;
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    report.blocked.reserve(live_.size());
    for (const auto& [seq, task] : live_) {
      obs::BlockedTask bt;
      bt.seq = seq;
      bt.launch = task.launch;
      bt.label = task.label;
      // Report only the waits-for edges still unsatisfied: a predecessor
      // that completed has left the live table.
      for (uint64_t dep : task.deps)
        if (live_.count(dep) != 0) bt.waits_for.push_back(dep);
      report.blocked.push_back(std::move(bt));
    }
  }
  std::sort(report.blocked.begin(), report.blocked.end(),
            [](const obs::BlockedTask& a, const obs::BlockedTask& b) {
              return a.seq < b.seq;
            });
  report.recent = event_log_.tail(config_.watchdog.tail_events);
  report.metrics = metrics_.snapshot();
  return report;
}

void Runtime::release(const TaskNodePtr& node) {
  if (node->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  // Readied off the completion path: no predecessor edge to name.
  if (log_ != nullptr)
    log_->record({.seq = node->seq, .launch = node->launch, .kind = LifecycleEvent::kReady});
  pool_->submit(node_job(node));
}

TaskFnId Runtime::register_task(std::string name, TaskFn fn) {
  IDXL_REQUIRE(static_cast<bool>(fn), "task body must be callable");
  task_log_names_.push_back(event_log_.intern(name));
  task_registry_.emplace_back(std::move(name), std::move(fn));
  return static_cast<TaskFnId>(task_registry_.size() - 1);
}

namespace {

/// Apply a remote owner's outcome to an external node's mapped regions.
/// Full-block outcomes (has_data) carry every written argument's bytes in
/// order; slim delta-mode outcomes carry only the rect patches addressed to
/// this rank — usually none, because the data plane ships bytes lazily when
/// a later consumer actually reads them.
void apply_remote_outcome(const RemoteOutcome& o, std::span<PhysicalRegion> regions) {
  if (o.has_data) {
    std::size_t off = 0;
    for (PhysicalRegion& r : regions)
      if (privilege_writes(r.privilege())) off = r.copy_in(o.region_bytes, off);
    IDXL_REQUIRE(off == o.region_bytes.size(),
                 "remote outcome bytes do not match the task's written regions");
    return;
  }
  for (const RegionPatch& p : o.patches) {
    IDXL_REQUIRE(p.arg < regions.size(),
                 "remote region patch names an argument out of range");
    regions[p.arg].copy_in_rect(p.field, p.rect, p.bytes);
  }
}

/// Dedupe `deps` (one argument pair can surface the same predecessor
/// repeatedly) and drop self-edges: a launch whose arguments alias can
/// surface the node's own earlier-argument use, and a self-edge would
/// deadlock.
void dedupe_deps(std::vector<TaskNodePtr>& deps, const TaskNodePtr& node) {
  std::sort(deps.begin(), deps.end());
  deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
  std::erase(deps, node);
}

/// `n` task nodes in one allocation. Default-initialization runs every
/// TaskNode member initializer; the value-initializing make_shared<T[]>
/// would also require TaskNode to be copyable.
std::shared_ptr<TaskNode[]> node_block(std::size_t n) {
  return std::make_shared_for_overwrite<TaskNode[]>(n);
}

/// Points per bulk-expansion chunk: one node block and one chunk job each.
constexpr std::size_t kChunk = 64;

/// The nodes of one chunk that its chunk job readied, shared by that
/// chunk's runner jobs: each claims the next node with `next` until none
/// is left.
struct ReadyList {
  std::shared_ptr<TaskNode[]> block;
  std::size_t count = 0;
  uint8_t index[kChunk];  // positions in `block`
  /// On its own cache line: every claim writes it, and the runners read
  /// the fields above on every claim too.
  alignas(64) std::atomic<std::size_t> next{0};
};
static_assert(kChunk <= 256, "ReadyList::index holds a chunk position in a byte");

/// Tasks a launch over `domain` issues (a single task's domain is empty).
std::size_t task_count(const Domain& domain) {
  return domain.empty() ? 1 : static_cast<std::size_t>(domain.volume());
}

}  // namespace

/// Kept alive by shared_ptr from every unsettled task of the launch and
/// every bulk-expansion chunk job. Immutable once the launch is issued,
/// except that each task's slice of `regions` is filled before the task's
/// closure guard drops.
struct LaunchArena {
  TaskFn body;  // copied: the registry may grow while workers run
  TaskFnId fn = UINT32_MAX;  // forwarded into TaskContext::fn for hooks
  uint32_t log_name = 0;     // interned task name for event-log spans
  ArgBuffer scalar;
  Domain launch_domain;
  std::shared_ptr<Future::State> collect;  // Future slots, or null
  uint64_t launch = 0;
  uint32_t retries = 0;
  uint32_t backoff_ms = 0;
  uint32_t timeout_ms = 0;
  /// Runtime-generated helper tasks (delta transfers): full dependence and
  /// poison semantics, but finish_fault keeps them out of the FaultReport so
  /// reports stay comparable across data-plane configurations.
  bool internal = false;
  /// Every task's mapped region arguments, task-major: `args` views per
  /// task, in launcher order. A task's slice is filled by whoever releases
  /// its closure guard (a chunk job for the bulk expansion, the issuing
  /// thread otherwise), and only the task reads it afterwards.
  std::vector<PhysicalRegion> regions;
  std::size_t args = 0;
  /// Bulk expansion: one prototype table per region argument (slots are
  /// filled by the issuing thread before the chunk jobs reading them are
  /// submitted) and every point's color rank per argument, point-major.
  std::vector<std::shared_ptr<Runtime::ProtoTable>> protos;
  std::vector<uint32_t> cranks;

  std::span<PhysicalRegion> regions_of(std::size_t rank) {
    return {regions.data() + rank * args, args};
  }

  /// Each task owns its slot; no synchronization needed beyond the
  /// wait_all() barrier in Future::get().
  void set_result(std::size_t rank, double value) const {
    if (collect == nullptr) return;
    IDXL_ASSERT(rank < collect->values.size());
    collect->values[rank] = value;
  }
};

template <typename Launcher>
Runtime::ArenaPtr Runtime::make_arena(const Launcher& launcher, const Domain& domain,
                                      uint64_t launch, std::size_t tasks) {
  auto arena = std::make_shared<LaunchArena>();
  arena->body = task_registry_[launcher.task].second;
  arena->fn = launcher.task;
  arena->log_name = task_log_names_[launcher.task];
  arena->scalar = launcher.scalar_args;
  arena->launch_domain = domain;
  arena->launch = launch;
  arena->retries = launcher.max_retries;
  arena->backoff_ms = launcher.retry_backoff_ms;
  arena->timeout_ms = launcher.timeout_ms;
  arena->args = launcher.args.size();
  arena->regions.resize(tasks * arena->args);
  if (launcher.result_redop != ReductionOp::kNone) {
    arena->collect = std::make_shared<Future::State>();
    arena->collect->op = launcher.result_redop;
    arena->collect->values.assign(tasks, 0.0);
  }
  return arena;
}

TaskNodePtr Runtime::new_node(const std::shared_ptr<TaskNode[]>& block, std::size_t i,
                              const LaunchArena& arena, const Point& point) {
  cells_.point_tasks.inc();
  TaskNodePtr node(block, &block[i]);
  node->seq = next_seq_++;
  node->launch = arena.launch;
  node->point = point;
  return node;
}

void Runtime::run_body(TaskNode& node) {
  LaunchArena& arena = *node.arena;
  const std::span<PhysicalRegion> regions = arena.regions_of(node.rank);
  if (node.external) {
    // Remote-owned point: apply the owner's outcome (written-region bytes
    // + return value) instead of running the body.
    apply_remote_outcome(*node.remote, regions);
    arena.set_result(node.rank, node.remote->ret);
    return;
  }
  TaskContext ctx;
  ctx.point = node.point;
  ctx.launch_domain = &arena.launch_domain;
  ctx.fn = arena.fn;
  ctx.scalar_args = &arena.scalar;
  ctx.regions = regions;
  arena.body(ctx);
  arena.set_result(node.rank, ctx.return_value);
  // Ship the outcome while the mapped regions are still alive.
  if (config_.on_task_success) config_.on_task_success(node.seq, node.launch, node.point, ctx);
}

uint64_t Runtime::take_launch_id(const obs::TraceContext& ctx) {
  IDXL_REQUIRE(!ctx.valid() || ctx.launch == next_launch_id_,
               "replicated launch id diverged from the descriptor's trace context");
  return next_launch_id_++;
}

Runtime::Resolution Runtime::resolve(const TaskLauncher& launcher) {
  IDXL_REQUIRE(launcher.task < task_registry_.size(), "unknown task id");
  Resolution res;
  std::vector<uint32_t> ispaces;
  for (const RegionArg& ra : launcher.args) {
    IDXL_REQUIRE(ra.region.valid(), "launcher has an invalid region argument");
    res.masks_.push_back(field_mask(ra.fields));
    res.regions_.emplace_back(*forest_, ra.region, ra.fields, ra.privilege, ra.redop);
    if (active_trace_ != nullptr) ispaces.push_back(forest_->region(ra.region).ispace.id);
  }
  res.trace_ = trace_launch(launcher.task, Domain{}, launcher.point, std::move(ispaces));
  return res;
}

LaunchResult Runtime::execute(const TaskLauncher& launcher, Resolution res) {
  TracedLaunch* traced = trace_record(res);
  // Named and stamped like an index launch's issue span, which the task
  // graph view reads each task's name from.
  LogScope issue_scope(log_, ProfCategory::kIssue, task_log_names_[launcher.task]);
  const uint64_t launch_id = take_launch_id(launcher.trace_ctx);
  issue_scope.event().launch = launch_id;
  cells_.runtime_calls.inc();
  cells_.single_launches.inc();
  const ArenaPtr arena = make_arena(launcher, launcher.launch_domain, launch_id, 1);
  arena->internal = launcher.internal;
  std::copy(res.regions_.begin(), res.regions_.end(), arena->regions.begin());
  LaunchResult result;  // single task: trivially safe, never an index launch
  result.launch_id = launch_id;
  result.future.state_ = arena->collect;
  LogScope replay_scope(replaying_ ? log_ : nullptr, ProfCategory::kTrace,
                        obs::EventLog::kNameTraceReplay);
  issue_point_task(arena, launcher.point, res.masks_, 0, traced);
  return result;
}

void Runtime::expand_as_task_loop(const IndexLauncher& launcher, const Resolution& res,
                                  const ArenaPtr& arena, TracedLaunch* traced) {
  // The "original task loop" branch: |D| individual launches in program
  // order, each a separate runtime call (this is what the paper's No-IDX
  // configurations measure).
  std::size_t rank = 0;
  launcher.domain.for_each([&](const Point& p) {
    cells_.runtime_calls.inc();
    cells_.single_launches.inc();
    const std::span<PhysicalRegion> regions = arena->regions_of(rank);
    for (std::size_t a = 0; a < regions.size(); ++a) {
      const ProjectedArg& pa = launcher.args[a];
      regions[a] =
          PhysicalRegion(*forest_, res.region(rank, a), pa.fields, pa.privilege, pa.redop);
    }
    issue_point_task(arena, p, res.masks_, rank++, traced);
  });
}

SafetyReport Runtime::analyze_safety(const IndexLauncher& launcher,
                                     std::span<const uint64_t> masks, uint64_t launch_id) {
  SafetyReport safety;
  if (launcher.assume_verified) {
    cells_.assumed_verified.inc();
    safety.outcome = SafetyOutcome::kSafeUnchecked;
    if (log_ != nullptr)
      log_->record({.launch = launch_id,
                    .kind = LifecycleEvent::kAnalyzed,
                    .detail = obs::LifecycleDetail::kAssumedVerified});
    return safety;
  }
  // Hybrid safety analysis (§3/§4).
  std::vector<CheckArg> check_args;
  check_args.reserve(launcher.args.size());
  for (std::size_t a = 0; a < launcher.args.size(); ++a) {
    const ProjectedArg& pa = launcher.args[a];
    CheckArg ca;
    ca.functor = &pa.functor;
    ca.color_space = forest_->color_space(pa.partition);
    ca.partition_disjoint = forest_->is_disjoint(pa.partition);
    ca.partition_uid = pa.partition.id;
    ca.collection_uid = forest_->region(pa.parent).tree_id;
    ca.field_mask = masks[a];
    ca.priv = pa.privilege;
    ca.redop = pa.redop;
    check_args.push_back(ca);
  }
  AnalysisOptions options;
  options.enable_dynamic_checks = config_.enable_dynamic_checks;
  options.extended_static = config_.extended_static_analysis;
  options.log = log_;
  options.verdict_cache = &verdict_cache_;
  auto pair_independent = [&](std::size_t i, std::size_t j) {
    return forest_->partitions_independent(launcher.args[i].parent,
                                          launcher.args[i].partition,
                                          launcher.args[j].parent,
                                          launcher.args[j].partition);
  };
  {
    // The safety span is also the launch's kAnalyzed record (at its end).
    LogScope safety_scope(log_, ProfCategory::kSafety, obs::EventLog::kNameSafetyCheck,
                          LifecycleEvent::kAnalyzed);
    safety_scope.event().launch = launch_id;
    safety = analyze_launch_safety(check_args, launcher.domain, options, pair_independent);
    safety_scope.event().detail = detail_of(safety.outcome);
  }
  cells_.dynamic_check_points.inc(safety.dynamic_points);
  if (safety.cache_hit)
    cells_.cache_hit_launches.inc();
  else
    cells_.cache_miss_launches.inc();
  switch (safety.outcome) {
    case SafetyOutcome::kSafeStatic: cells_.safe_static.inc(); break;
    case SafetyOutcome::kSafeDynamic: cells_.safe_dynamic.inc(); break;
    case SafetyOutcome::kSafeUnchecked: cells_.safe_unchecked.inc(); break;
    case SafetyOutcome::kUnsafe: cells_.unsafe.inc(); break;
  }
  return safety;
}

Runtime::Resolution Runtime::resolve(const IndexLauncher& launcher) {
  IDXL_REQUIRE(launcher.task < task_registry_.size(), "unknown task id");
  IDXL_REQUIRE(!launcher.domain.empty(), "index launch over an empty domain");
  LogScope scope(log_, ProfCategory::kIssue, obs::EventLog::kNameIssue);
  const std::size_t n_args = launcher.args.size();
  Resolution res;
  // 1. Every functor (compiled) at every point, and the color it selects.
  std::vector<const Rect*> colors;
  colors.reserve(n_args);
  for (const ProjectedArg& pa : launcher.args) {
    IDXL_REQUIRE(forest_->partition_parent(pa.partition) == forest_->region(pa.parent).ispace,
                 "partition does not partition this region's index space");
    pa.functor.ensure_compiled();
    colors.push_back(&forest_->color_space(pa.partition));
  }
  res.cranks_.resize(static_cast<std::size_t>(launcher.domain.volume()) * n_args);
  std::vector<uint32_t> ispaces;
  std::size_t slot = 0;
  launcher.domain.for_each([&](const Point& p) {
    for (std::size_t a = 0; a < n_args; ++a) {
      const ProjectionFunctor& functor = launcher.args[a].functor;
      Point color;
      color.dim = functor.output_dim();
      functor.eval_into(p, color.c.data());
      IDXL_REQUIRE(colors[a]->contains(color),
                   "projection functor selected a color outside the partition");
      res.cranks_[slot++] = static_cast<uint32_t>(colors[a]->linearize(color));
      if (active_trace_ != nullptr)
        ispaces.push_back(forest_->subspace(launcher.args[a].partition, color).id);
    }
  });
  // 2. Each argument's field list (interned per root, so no forest change).
  res.masks_.reserve(n_args);
  for (const ProjectedArg& pa : launcher.args) {
    res.masks_.push_back(field_mask(pa.fields));
    forest_->resolve_fields(pa.parent, pa.fields);
  }
  res.trace_ = trace_launch(launcher.task, launcher.domain, Point{}, std::move(ispaces));
  // 3. The subregion tables: the launch's first forest change. Each
  // argument's partition was checked against its parent above, so it
  // cannot throw. Every rank of a replicated run creates the launch's
  // subregions here, in table order, whichever path then issues it.
  res.tables_.reserve(n_args);
  for (const ProjectedArg& pa : launcher.args)
    res.tables_.push_back(&forest_->subregion_table(pa.parent, pa.partition));
  return res;
}

LaunchResult Runtime::execute_index(const IndexLauncher& launcher, Resolution res,
                                    const std::function<void(bool)>& expanding) {
  TracedLaunch* traced = trace_record(res);
  // The issue span is also the launch's kIssued record (at its start).
  LogScope issue_scope(log_, ProfCategory::kIssue, task_log_names_[launcher.task],
                       LifecycleEvent::kIssued);
  const uint64_t launch_id = take_launch_id(launcher.trace_ctx);
  issue_scope.event().launch = launch_id;
  const ArenaPtr arena =
      make_arena(launcher, launcher.domain, launch_id,
                 static_cast<std::size_t>(launcher.domain.volume()));
  LaunchResult result;
  result.launch_id = launch_id;
  result.future.state_ = arena->collect;

  // One bulk issuance call (§5).
  if (config_.enable_index_launches) cells_.runtime_calls.inc();
  if (replaying_) {
    // A replay returns what its capture returned; the launch was verified
    // then.
    result.ran_as_index_launch = traced->ran_as_index_launch;
    result.safety.outcome = traced->outcome;
  } else {
    // No-IDX mode issues the launch group as individual tasks, in the
    // application's own program order, so no analysis runs. An unsafe
    // launch falls back to that task loop.
    if (config_.enable_index_launches)
      result.safety = analyze_safety(launcher, res.masks_, launch_id);
    result.ran_as_index_launch = config_.enable_index_launches &&
                                 result.safety.outcome != SafetyOutcome::kUnsafe;
    if (traced != nullptr) {
      traced->ran_as_index_launch = result.ran_as_index_launch;
      traced->outcome = result.safety.outcome;
    }
  }

  if (expanding) expanding(result.ran_as_index_launch);
  if (!result.ran_as_index_launch) {
    LogScope replay_scope(replaying_ ? log_ : nullptr, ProfCategory::kTrace,
                          obs::EventLog::kNameTraceReplay);
    expand_as_task_loop(launcher, res, arena, traced);
    return result;
  }

  // Safe: expand into point tasks. In this in-process executor "expansion"
  // assigns work directly to the scheduler; the distributed pipeline's
  // sharded/sliced distribution is modeled by src/sim. The tracker orders
  // the points (§5's whole-partition rule inside it); a replay reads the
  // captured edges instead.
  expand_index_launch(launcher, res, arena, traced);
  cells_.index_launches.inc();
  return result;
}

void Runtime::wire_node(const LaunchArena& arena, const TaskNodePtr& node,
                        const std::vector<TaskNodePtr>& deps) {
  cells_.dependence_edges.inc(deps.size());
  if (live_enabled_) {
    LiveTask lt;
    // "name@point", formatted only for the watchdog.
    lt.label = task_registry_[arena.fn].first + "@" + node->point.to_string();
    lt.launch = node->launch;
    lt.deps.reserve(deps.size());
    for (const TaskNodePtr& dep : deps) lt.deps.push_back(dep->seq);
    std::lock_guard<std::mutex> lock(live_mu_);
    live_.emplace(node->seq, std::move(lt));
  }
  if (log_ != nullptr && log_->capturing()) {
    std::vector<uint64_t> dep_seqs;
    dep_seqs.reserve(deps.size());
    for (const TaskNodePtr& dep : deps) dep_seqs.push_back(dep->seq);
    log_->record_edges(node->seq, dep_seqs);
  }
  // Closure guard BEFORE register_external: the latter publishes the node
  // to the distributed recv threads, and the guard (held until the caller
  // has attached the node's arena and regions) keeps an early remote
  // outcome from readying a node that is not scheduled or cannot run yet.
  node->pending.fetch_add(1, std::memory_order_relaxed);
  if (config_.point_owned != nullptr &&
      !config_.point_owned(arena.launch, node->point, arena.launch_domain))
    register_external(node);
  schedule(node, deps);
}

void Runtime::expand_index_launch(const IndexLauncher& launcher, Resolution& res,
                                  const ArenaPtr& arena, TracedLaunch* traced) {
  const bool replay = replaying_;
  const std::size_t n_args = launcher.args.size();
  arena->protos.reserve(n_args);

  // Per-argument launch plan: everything the per-point loop needs, once.
  struct ArgPlan {
    const std::vector<RegionId>* table = nullptr;  // subregion by color rank
    const std::vector<FieldId>* fields = nullptr;
    ProtoTable* protos = nullptr;
    uint32_t tree = 0;
    PartitionId partition;
    bool disjoint = false;
    uint64_t mask = 0;
    bool writes = false;
    Privilege priv = Privilege::kRead;
    ReductionOp redop = ReductionOp::kNone;
  };
  std::vector<ArgPlan> plans;
  plans.reserve(n_args);
  for (std::size_t a = 0; a < n_args; ++a) {
    const ProjectedArg& pa = launcher.args[a];
    ArgPlan plan;
    plan.table = res.tables_[a];
    plan.fields = &pa.fields;
    plan.tree = forest_->region(pa.parent).tree_id;
    plan.partition = pa.partition;
    plan.disjoint = forest_->is_disjoint(pa.partition);
    plan.mask = res.masks_[a];
    plan.writes = privilege_writes(pa.privilege);
    plan.priv = pa.privilege;
    plan.redop = pa.redop;
    const ProtoKey key{pa.parent.id, pa.partition.id, plan.mask, pa.privilege,
                       pa.redop};
    auto [it, inserted] = proto_cache_.try_emplace(key);
    if (inserted) it->second = std::make_shared<ProtoTable>(plan.table->size());
    arena->protos.push_back(it->second);
    plan.protos = it->second.get();
    plans.push_back(std::move(plan));
  }

  // Fill the prototype of every color a point selects, so chunk jobs never
  // read the forest from worker threads. resolve() checked every color and
  // field list, so nothing from here on can refuse the launch.
  arena->cranks = std::move(res.cranks_);
  const std::size_t n_points = static_cast<std::size_t>(launcher.domain.volume());
  for (std::size_t slot = 0; slot < n_points * n_args;)
    for (const ArgPlan& plan : plans) {
      const uint32_t crank = arena->cranks[slot++];
      std::optional<PhysicalRegion>& proto = (*plan.protos)[crank];
      if (!proto.has_value())
        proto.emplace(*forest_, (*plan.table)[crank], *plan.fields, plan.priv, plan.redop);
    }

  // The expansion span is also the launch's kExpanded record (at its end).
  // A replayed launch's is one trace-replay span, so the dependence spans
  // time live analysis only.
  LogScope dep_scope(log_, replay ? ProfCategory::kTrace : ProfCategory::kDependence,
                     replay ? obs::EventLog::kNameTraceReplay : obs::EventLog::kNameDependence,
                     LifecycleEvent::kExpanded);
  dep_scope.event().launch = arena->launch;
  if (replay) dep_scope.event().detail = obs::LifecycleDetail::kReplay;

  // Per-point kIssued events share one timestamp (read here, on the issuing
  // thread) but are constructed and recorded inside the chunk jobs, from the
  // nodes the chunks already carry — the always-on recorder adds no
  // per-point work to the issue loop's critical path.
  const uint64_t issue_ts = log_ != nullptr ? log_->now_ns() : 0;

  // Chunked deferred expansion: the issuing thread wires dependence edges
  // and holds a "closure guard" on each node's pending count; chunk jobs on
  // pool workers copy the prototype PhysicalRegions into the points' slices
  // of the arena's region table, attach the arena to the nodes and release
  // the guard. All chunks of a launch enqueue under one lock
  // (ThreadPool::submit_batch), after the last node is wired: a chunk
  // submitted as it filled could finish the previous launch's tasks before
  // this launch's edges exist, and its nodes would then be readied by chunk
  // jobs, through the pool, instead of inline by the completions they wait
  // for. A chunk's nodes share one allocation, `block`.
  std::shared_ptr<TaskNode[]> block;  // nodes of ranks [chunk_begin, rank)
  std::size_t chunk_begin = 0;
  std::vector<std::function<void()>> chunk_jobs;

  auto flush_chunk = [&](std::size_t end) {
    if (end == chunk_begin) return;
    chunk_jobs.push_back([this, arena, issue_ts, begin = chunk_begin, end,
                          block = std::move(block)] {
      LogScope chunk_scope(log_, ProfCategory::kIssue, obs::EventLog::kNameExpandChunk);
      if (log_ != nullptr) {
        // One pre-stamped batch per chunk; ts-sorted snapshots still show
        // these kIssued events before the tasks' later lifecycle stages.
        std::vector<obs::Event> issued;
        issued.reserve(end - begin);
        for (std::size_t i = 0; i < end - begin; ++i) {
          const TaskNode& node = block[i];
          obs::Event ev{.ts_ns = issue_ts,
                        .seq = node.seq,
                        .launch = node.launch,
                        .kind = LifecycleEvent::kIssued};
          ev.set_point(node.point.c.data(), node.point.dim);
          issued.push_back(ev);
        }
        log_->record_batch(issued);
      }
      const std::size_t args = arena->args;
      uint8_t ready[kChunk];
      std::size_t n_ready = 0;
      for (std::size_t rank = begin; rank < end; ++rank) {
        TaskNode& node = block[rank - begin];
        node.arena = arena;
        node.rank = rank;
        const uint32_t* cranks = arena->cranks.data() + rank * args;
        const std::span<PhysicalRegion> regions = arena->regions_of(rank);
        for (std::size_t a = 0; a < args; ++a) regions[a] = *(*arena->protos[a])[cranks[a]];
        // Release the closure guard; the node is ready right here when its
        // dependence edges were already satisfied.
        if (node.pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
          ready[n_ready++] = static_cast<uint8_t>(rank - begin);
      }
      if (n_ready != 0) submit_ready(block, std::span<const uint8_t>(ready, n_ready));
    });
    chunk_begin = end;
  };

  // Create the nodes, wire edges, schedule.
  std::vector<TaskNodePtr> deps;
  std::size_t rank = 0;
  launcher.domain.for_each([&](const Point& p) {
    if (rank == chunk_begin)
      block = node_block(std::min(kChunk, n_points - rank));
    TaskNodePtr node = new_node(block, rank - chunk_begin, *arena, p);
    const uint32_t* cranks = arena->cranks.data() + rank * n_args;
    deps.clear();
    if (replay) {
      trace_deps(*traced, rank, node, deps);
    } else {
      // While capturing a trace, keep cleanly-completed predecessors in
      // the tracker and record their edges: replay re-executes them
      // concurrently, so "already done" does not order the replayed run.
      const bool keep_done = traced != nullptr;
      for (std::size_t a = 0; a < n_args; ++a) {
        const ArgPlan& plan = plans[a];
        const RegionInfo& info = forest_->region((*plan.table)[cranks[a]]);
        tracker_.record_use(plan.tree, info.ispace, plan.mask, plan.writes, plan.partition,
                            plan.disjoint, node, deps, keep_done);
      }
      dedupe_deps(deps, node);
      if (traced != nullptr) trace_deps(*traced, rank, node, deps);
    }
    wire_node(*arena, node, deps);
    if (++rank - chunk_begin == kChunk) flush_chunk(rank);
  });
  flush_chunk(rank);
  dep_scope.close();
  pool_->submit_batch(std::move(chunk_jobs));
}

void Runtime::issue_point_task(const ArenaPtr& arena, const Point& point,
                               std::span<const uint64_t> masks, std::size_t rank,
                               TracedLaunch* traced) {
  const TaskNodePtr node = new_node(node_block(1), 0, *arena, point);
  if (log_ != nullptr) {
    obs::Event ev{.seq = node->seq, .launch = node->launch, .kind = LifecycleEvent::kIssued};
    ev.set_point(point.c.data(), point.dim);
    log_->record(ev);
  }

  // --- dependence discovery: tracker scan, or trace replay ---
  std::vector<TaskNodePtr> deps;
  if (replaying_) {
    trace_deps(*traced, rank, node, deps);
  } else {
    {
      LogScope dep_scope(log_, ProfCategory::kDependence, obs::EventLog::kNameDependence,
                         LifecycleEvent::kSpan, node->seq);
      const std::span<const PhysicalRegion> regions = arena->regions_of(rank);
      for (std::size_t a = 0; a < regions.size(); ++a) {
        const RegionInfo& info = forest_->region(regions[a].region_id());
        const bool through_disjoint =
            info.through.valid() && forest_->is_disjoint(info.through);
        tracker_.record_use(info.tree_id, info.ispace, masks[a],
                            privilege_writes(regions[a].privilege()), info.through,
                            through_disjoint, node, deps,
                            /*keep_done=*/traced != nullptr);
      }
      dedupe_deps(deps, node);
    }
    if (traced != nullptr) trace_deps(*traced, rank, node, deps);
  }

  wire_node(*arena, node, deps);
  node->arena = arena;
  node->rank = rank;
  release(node);  // the closure guard
}

void Runtime::schedule(const TaskNodePtr& node, const std::vector<TaskNodePtr>& deps) {
  // `pending` starts at 1 (issue guard); each live predecessor adds one.
  // The increment must happen *before* the edge is published: a dependency
  // can complete and decrement the instant add_successor releases its lock,
  // and must never observe a count our side hasn't raised yet (double-ready).
  for (const TaskNodePtr& dep : deps) {
    node->pending.fetch_add(1, std::memory_order_relaxed);
    if (!dep->add_successor(node)) {
      // Already complete: the edge is trivially satisfied — but a faulted
      // dep's poison must still flow, since its fan-out already happened.
      inherit_poison(*dep, *node);
      node->pending.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  release(node);  // the issue guard
}

std::function<void()> Runtime::node_job(TaskNodePtr node) {
  // `ready_ns` is stamped here — the moment every dependence was satisfied —
  // so the recorded queue wait is pure scheduler latency.
  node->ready_ns = log_ != nullptr ? log_->now_ns() : 0;
  TaskNode* raw = node.get();
  raw->queued = std::move(node);
  return [this, raw] { run_chain(std::move(raw->queued)); };
}

void Runtime::submit_ready(const std::shared_ptr<TaskNode[]>& block,
                           std::span<const uint8_t> ready) {
  auto list = std::make_shared<ReadyList>();
  list->block = block;
  list->count = ready.size();
  std::copy(ready.begin(), ready.end(), list->index);
  // Readied off the completion path: no predecessor edge to name.
  const uint64_t ts = log_ != nullptr ? log_->now_ns() : 0;
  for (uint8_t i : ready) {
    TaskNode& node = block[i];
    node.ready_ns = ts;
    if (log_ != nullptr)
      log_->record({.ts_ns = ts,
                    .seq = node.seq,
                    .launch = node.launch,
                    .kind = LifecycleEvent::kReady});
  }
  // One runner per worker at most, queued where the nodes' own jobs would
  // be, so the pool reaches them in the same order.
  const std::size_t runners = std::min<std::size_t>(ready.size(), pool_->worker_count());
  std::vector<std::function<void()>> jobs(runners, [this, list] {
    for (std::size_t i; (i = list->next.fetch_add(1, std::memory_order_relaxed)) < list->count;) {
      TaskNodePtr node(list->block, &list->block[list->index[i]]);
      // While the pool is paused no body may start: queue the rest.
      if (pool_->paused())
        pool_->submit(node_job(std::move(node)));
      else
        run_chain(std::move(node));
    }
  });
  pool_->submit_batch(std::move(jobs));
}

void Runtime::run_chain(TaskNodePtr node) {
  // Each successor a completion keeps for this worker starts here, in a
  // loop rather than by recursion, so a long chain does not grow the stack.
  uint64_t inline_starts = 0;
  for (TaskNodePtr next = run_node(node); next != nullptr; ++inline_starts)
    next = run_node(next);
  if (inline_starts != 0) cells_.tasks_inline.inc(inline_starts);
}

TaskNodePtr Runtime::run_node(const TaskNodePtr& node) {
  obs::EventLog* log = log_;
  // Valid until the node settles, which is the last thing every path does.
  const LaunchArena& arena = *node->arena;
  // --- external (remote-owned) node: apply the owner's outcome ---
  // The local fault gates and the injection plan deliberately do NOT run
  // here: the owner already made those decisions, and determinism across
  // processes requires every rank to record the owner's verdict verbatim
  // (a poisoned remote point arrives as a kPoisoned outcome).
  if (node->external) {
    const RemoteOutcome& o = *node->remote;
    if (o.kind != FaultKind::kNone)
      return finish_fault(node, o.kind, o.root, o.attempts, o.message);
    try {
      run_body(*node);
    } catch (const std::exception& e) {
      return finish_fault(node, FaultKind::kException, node->seq, 1, e.what());
    }
    return settle(node, obs::Event::kNone);
  }

  // --- fault gates: settle without running the body ---
  const uint64_t proot = node->poison_root.load(std::memory_order_acquire);
  if (proot != UINT64_MAX) return finish_fault(node, FaultKind::kPoisoned, proot, 0, {});
  if (cancel_all_.load(std::memory_order_acquire) ||
      node->cancel_flag.load(std::memory_order_acquire))
    return finish_fault(node, FaultKind::kCancelled, node->seq, 0, "cancelled before start");

  // --- execute one attempt ---
  FaultKind fk = FaultKind::kNone;
  std::string msg;
  if (fault_plan_ != nullptr &&
      fault_plan_->should_fail(node->launch, node->point, node->attempt)) {
    cells_.fault_injections.inc();
    fk = FaultKind::kInjected;
    msg = "injected fault";
  } else {
    uint64_t timer = 0;
    if (arena.timeout_ms > 0) {
      // The timer fires on the pool's timer thread (never a worker), so a
      // timeout lands even when every worker is stuck; the shared_ptr
      // capture keeps the node alive if the task wins the race.
      timer = pool_->submit_after(
          [n = node] {
            n->timed_out.store(true, std::memory_order_release);
            n->cancel_flag.store(true, std::memory_order_release);
          },
          arena.timeout_ms);
    }
    const uint64_t start_ns = log != nullptr ? log->now_ns() : 0;
    try {
      FaultFrameScope frame(FaultFrame{&node->cancel_flag, &cancel_all_, node->attempt});
      run_body(*node);
    } catch (const TaskCancelled&) {
      fk = node->timed_out.load(std::memory_order_acquire) ? FaultKind::kTimeout
                                                           : FaultKind::kCancelled;
      msg = fk == FaultKind::kTimeout ? "timed out" : "cancelled";
    } catch (const TaskFailure& e) {
      fk = FaultKind::kExplicit;
      msg = e.what();
    } catch (const std::exception& e) {
      fk = FaultKind::kException;
      msg = e.what();
    } catch (...) {
      fk = FaultKind::kException;
      msg = "unknown exception";
    }
    if (timer != 0) pool_->cancel_timer(timer);
    if (fk == FaultKind::kNone && log != nullptr) {
      const uint64_t end_ns = log->now_ns();
      // One record per executed body: the task span, which the lifecycle
      // view reads as kRunning at its start and kComplete at its end.
      log->record({.ts_ns = start_ns,
                   .dur_ns = end_ns - start_ns,
                   .seq = node->seq,
                   .launch = node->launch,
                   .queue_wait_ns = start_ns - node->ready_ns,
                   .name = arena.log_name,
                   .kind = LifecycleEvent::kComplete,
                   .cat = ProfCategory::kTask});
      cells_.task_duration.observe(end_ns - start_ns);
      cells_.queue_wait.observe(start_ns - node->ready_ns);
    }
  }

  if (fk == FaultKind::kNone) {
    if (node->attempt > 0) cells_.retry_succeeded.inc();
    return settle(node, obs::Event::kNone);
  }

  // --- failed attempt: retry under the launch policy, or settle ---
  const bool retryable = fk == FaultKind::kException || fk == FaultKind::kExplicit ||
                         fk == FaultKind::kInjected;
  if (!retryable || node->attempt >= arena.retries)
    return finish_fault(node, fk, node->seq, node->attempt + 1, std::move(msg));
  ++node->attempt;  // the executing worker owns this field
  cells_.retry_attempts.inc();
  if (log != nullptr) {
    obs::Event ev{.seq = node->seq,
                  .launch = node->launch,
                  .edge = node->attempt,  // attempt number about to run
                  .kind = LifecycleEvent::kRetry,
                  .detail = detail_of(fk)};
    ev.set_point(node->point.c.data(), node->point.dim);
    log->record(ev);
  }
  // Exponential backoff: backoff_ms, 2*backoff_ms, 4*backoff_ms, ...
  const uint64_t delay = arena.backoff_ms == 0
                             ? 0
                             : static_cast<uint64_t>(arena.backoff_ms) << (node->attempt - 1);
  if (delay == 0) {
    pool_->submit(node_job(node));
  } else {
    // The pending timer holds the pool open (wait_idle waits for it).
    pool_->submit_after([this, n = node]() mutable { pool_->submit(node_job(std::move(n))); },
                        delay);
  }
  return nullptr;
}

TaskNodePtr Runtime::finish_fault(const TaskNodePtr& node, FaultKind kind, uint64_t root,
                                  uint32_t attempts, std::string message) {
  node->fault.store(static_cast<uint8_t>(kind), std::memory_order_release);
  // Publish the root for late edges (inherit_poison) before complete() —
  // by now every predecessor has fanned out, so no store can race this.
  node->poison_root.store(root, std::memory_order_release);

  TaskFault fault;
  fault.seq = node->seq;
  fault.launch = node->launch;
  fault.point = node->point;
  fault.attempts = attempts;
  fault.kind = kind;
  fault.root = root;
  fault.message = std::move(message);
  // Broadcast owned terminal outcomes (external nodes' faults came FROM the
  // owner; re-broadcasting would echo forever). Runtime-generated helper
  // tasks (delta transfers) still broadcast — every rank must poison the
  // same downstream set — but stay out of the user-facing FaultReport so
  // reports compare equal across data-plane configurations.
  if (config_.on_task_fault && !node->external) config_.on_task_fault(fault);
  if (!node->arena->internal) faults_.record(std::move(fault));

  fault_cell(kind).inc();

  if (log_ != nullptr) {
    obs::Event ev{.seq = node->seq,
                  .launch = node->launch,
                  .edge = kind == FaultKind::kPoisoned ? root : obs::Event::kNone,
                  .kind = kind == FaultKind::kPoisoned    ? LifecycleEvent::kPoisoned
                          : kind == FaultKind::kCancelled ? LifecycleEvent::kCancelled
                                                          : LifecycleEvent::kFailed,
                  .detail = detail_of(kind)};
    ev.set_point(node->point.c.data(), node->point.dim);
    log_->record(ev);
  }

  // A settled task is progress: terminal faults count toward the completed
  // counter so pending drains to zero (no false watchdog stalls, fences
  // return). stats().tasks_failed/"poisoned" break the composition out.
  return settle(node, root);
}

TaskNodePtr Runtime::settle(const TaskNodePtr& node, uint64_t poison) {
  cells_.tasks_completed.inc();
  if (live_enabled_) {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_.erase(node->seq);
  }
  // Release what the body ran with promptly: the tracker may hold the node
  // itself until the next fence.
  node->arena.reset();
  node->remote.reset();
  return fan_out(node, poison);
}

TaskNodePtr Runtime::fan_out(const TaskNodePtr& node, uint64_t poison) {
  node->complete();
  // Move the successors this completion readied to the front, in place.
  TaskNode& done = *node;
  const std::size_t n_succ = done.successor_count();
  std::size_t n_ready = 0;
  for (std::size_t i = 0; i < n_succ; ++i) {
    TaskNode& succ = *done.successor(i);
    if (poison != obs::Event::kNone) {
      // Atomic-min CAS: a successor's poison root settles to the smallest
      // failed-ancestor seq. All marking happens before the successor's
      // pending count reaches zero, so the value is deterministic whatever
      // order the predecessors completed in.
      uint64_t cur = succ.poison_root.load(std::memory_order_relaxed);
      while (poison < cur && !succ.poison_root.compare_exchange_weak(
                                 cur, poison, std::memory_order_acq_rel)) {
      }
    }
    if (succ.pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
      std::swap(done.successor(n_ready++), done.successor(i));
  }

  TaskNodePtr next;
  if (n_ready != 0) {
    const uint64_t ts = log_ != nullptr ? log_->now_ns() : 0;
    if (log_ != nullptr) {
      // This completion was the last unblocker of every ready successor:
      // the waits-for edge the stall report names is (succ <- node).
      for (std::size_t i = 0; i < n_ready; ++i) {
        const TaskNode& succ = *done.successor(i);
        log_->record({.ts_ns = ts,
                      .seq = succ.seq,
                      .launch = succ.launch,
                      .edge = done.seq,
                      .kind = LifecycleEvent::kReady});
      }
    }
    // Keep the first for this worker to run next: no queue round-trip.
    // While the pool is paused no body may start, so every successor is
    // queued.
    std::size_t i = 0;
    if (!pool_->paused()) {
      next = std::move(done.successor(i++));
      next->ready_ns = ts;
    }
    std::vector<std::function<void()>> jobs;
    jobs.reserve(n_ready - i);
    for (; i < n_ready; ++i) jobs.push_back(node_job(std::move(done.successor(i))));
    pool_->submit_batch(std::move(jobs));
  }
  // The list is spent: drop the references still held now, not when the
  // tracker releases the node at the next fence.
  done.first_successor.reset();
  done.later_successors.clear();
  return next;
}

void Runtime::begin_trace(uint32_t trace_id) {
  IDXL_REQUIRE(!trace_id_.has_value(), "traces cannot nest");
  wait_all();  // the fence also drops the tracker's state
  Trace& trace = traces_[trace_id];
  if (log_ != nullptr)
    log_->record({.kind = LifecycleEvent::kTraceBegin,
                  .detail = trace.captured ? obs::LifecycleDetail::kReplay
                                           : obs::LifecycleDetail::kNone});
  trace_id_ = trace_id;
  active_trace_ = &trace;
  replaying_ = trace.captured;
  trace_first_seq_ = next_seq_;
  replay_cursor_ = 0;
  trace_nodes_.clear();
  // Faults recorded between here and end_trace invalidate the trace: a
  // capture containing a failed step must not be replayed (the poisoned
  // closure never ran, so its dependence record is not the real program's).
  trace_fault_epoch_ = faults_.epoch();
}

void Runtime::end_trace(uint32_t trace_id) {
  IDXL_REQUIRE(trace_id_ == trace_id, "end_trace without begin_trace");
  Trace* trace = active_trace_;
  const bool short_replay = replaying_ && replay_cursor_ != trace->launches.size();
  trace_id_.reset();
  active_trace_ = nullptr;
  replaying_ = false;
  trace_nodes_.clear();
  // Quiesce before validating: every fault a traced task will ever produce
  // is in the log once the fence returns (which, outside a trace, also drops
  // the tracker's state).
  wait_all();
  if (trace != nullptr) {
    // A trace containing a failed step is dropped, not replayed: the
    // poisoned closure never executed, so the captured record does not
    // describe a successful run. So is a replay that stopped short of its
    // capture. The next begin_trace captures afresh.
    trace->captured = !short_replay && faults_.epoch() == trace_fault_epoch_;
    if (!trace->captured) trace->launches.clear();
  }
  if (log_ != nullptr) log_->record({.kind = LifecycleEvent::kTraceEnd});
  IDXL_REQUIRE(!short_replay, "trace replay issued fewer launches than were captured");
}

std::optional<std::size_t> Runtime::trace_launch(TaskFnId fn, const Domain& domain,
                                                 const Point& point,
                                                 std::vector<uint32_t> ispaces) {
  if (active_trace_ == nullptr) return std::nullopt;
  std::vector<TracedLaunch>& launches = active_trace_->launches;
  const uint64_t first = next_seq_ - trace_first_seq_;
  if (!replaying_) {
    LogScope capture_scope(log_, ProfCategory::kTrace, obs::EventLog::kNameTraceCapture);
    TracedLaunch& rec = launches.emplace_back();
    rec.fn = fn;
    rec.domain = domain;
    rec.point = point;
    rec.first = first;
    rec.ispaces = std::move(ispaces);
    rec.dep_offsets.reserve(task_count(domain) + 1);
    return launches.size() - 1;
  }
  if (replay_cursor_ == launches.size())
    trace_diverged("trace replay issued more launches than were captured");
  TracedLaunch& rec = launches[replay_cursor_++];
  // The capture must have issued this launch whole, and the replay so far
  // every task the capture did: a launch that threw part-way through either
  // would shift the trace-local indices of everything after it.
  if (rec.fn != fn || rec.domain != domain || rec.point != point || rec.first != first ||
      rec.dep_offsets.size() != task_count(domain) + 1)
    trace_diverged("trace replay diverged from the captured task sequence");
  if (rec.ispaces != ispaces) trace_diverged("trace replay diverged in region arguments");
  return replay_cursor_ - 1;
}

Runtime::TracedLaunch* Runtime::trace_record(const Resolution& res) {
  if (active_trace_ == nullptr && !res.trace_.has_value()) return nullptr;
  IDXL_REQUIRE(active_trace_ != nullptr && res.trace_.has_value() &&
                   *res.trace_ < active_trace_->launches.size(),
               "a launch must be issued in the trace scope it was resolved in");
  return &active_trace_->launches[*res.trace_];
}

void Runtime::trace_deps(TracedLaunch& rec, std::size_t task, const TaskNodePtr& node,
                         std::vector<TaskNodePtr>& deps) {
  if (replaying_) {
    for (uint32_t k = rec.dep_offsets[task]; k < rec.dep_offsets[task + 1]; ++k)
      deps.push_back(trace_nodes_[rec.deps[k]]);
    trace_nodes_.push_back(node);
    cells_.traced_replayed.inc();
    return;
  }
  // Pre-trace predecessors are dropped: traces are fenced, so they are
  // satisfied by construction on replay.
  for (const TaskNodePtr& dep : deps)
    if (dep->seq >= trace_first_seq_)
      rec.deps.push_back(static_cast<uint32_t>(dep->seq - trace_first_seq_));
  rec.dep_offsets.push_back(static_cast<uint32_t>(rec.deps.size()));
}

void Runtime::trace_diverged(const char* what) {
  // Drop the capture the way a faulted trace is dropped, fence the tasks
  // already replayed (they never touched the tracker, so the untraced
  // rest of the scope starts from a clean fence), and leave the scope open
  // for end_trace to close normally.
  active_trace_->captured = false;
  active_trace_->launches.clear();
  active_trace_ = nullptr;
  replaying_ = false;
  trace_nodes_.clear();
  wait_all();
  throw RuntimeError(std::string("idxl: ") + what);
}

void Runtime::register_external(const TaskNodePtr& node) {
  node->external = true;
  node->pending.fetch_add(1, std::memory_order_relaxed);  // remote guard
  std::optional<RemoteOutcome> early;
  {
    std::lock_guard<std::mutex> lock(ext_mu_);
    auto it = early_outcomes_.find(node->seq);
    if (it != early_outcomes_.end()) {
      early = std::move(it->second);
      early_outcomes_.erase(it);
    } else {
      externals_.emplace(node->seq, node);
    }
  }
  // A forwarded outcome can overtake the launch frame that issues its node;
  // apply the buffered one here. Releasing the remote guard is safe — the
  // caller still holds the closure guard, so the node cannot become ready
  // under us.
  if (early.has_value()) {
    node->remote = std::make_unique<RemoteOutcome>(std::move(*early));
    node->pending.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Runtime::complete_external(uint64_t seq, RemoteOutcome outcome) {
  TaskNodePtr node;
  {
    std::lock_guard<std::mutex> lock(ext_mu_);
    auto it = externals_.find(seq);
    if (it == externals_.end()) {
      // Outcome beat the launch frame (or `seq` is owned here and this is a
      // stray echo — the protocol never sends those). Buffer for issue time.
      early_outcomes_.emplace(seq, std::move(outcome));
      return;
    }
    node = it->second;
  }
  deliver_external(node, std::move(outcome));
  {
    // Erase only after delivery: wait_all observing externals_ empty must
    // imply every outcome's pool job (if any) was already submitted.
    std::lock_guard<std::mutex> lock(ext_mu_);
    externals_.erase(seq);
  }
  ext_cv_.notify_all();
}

std::vector<uint64_t> Runtime::pending_externals() const {
  std::vector<uint64_t> out;
  std::lock_guard<std::mutex> lock(ext_mu_);
  out.reserve(externals_.size());
  for (const auto& [seq, node] : externals_) out.push_back(seq);
  return out;
}

void Runtime::abandon_externals(const std::string& why) {
  for (;;) {
    uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(ext_mu_);
      if (externals_.empty()) return;
      seq = externals_.begin()->first;
    }
    RemoteOutcome o;
    o.kind = FaultKind::kCancelled;
    o.root = seq;
    o.attempts = 0;
    o.message = why;
    complete_external(seq, std::move(o));
  }
}

void Runtime::deliver_external(const TaskNodePtr& node, RemoteOutcome outcome) {
  node->remote = std::make_unique<RemoteOutcome>(std::move(outcome));
  release(node);
}

void Runtime::fill_bytes_region(RegionId r, FieldId f, const void* pattern,
                                std::size_t size) {
  TaskLauncher launcher = make_fill_launcher(*forest_, r, f, pattern, size);
  if (fill_task_ == UINT32_MAX) fill_task_ = register_task("idxl_fill", fill_task_body);
  launcher.task = fill_task_;
  execute(launcher);
}

void Runtime::wait_all() {
  // The wait span is also the fence's kFence record (at its end).
  LogScope wait_scope(log_, ProfCategory::kRuntime, obs::EventLog::kNameWaitAll,
                      LifecycleEvent::kFence);
  // External nodes first: their pool jobs exist only once the owning process
  // delivers an outcome, so an idle pool does not imply quiescence. The recv
  // threads only ever *remove* entries (externals are registered by this —
  // the issuing — thread), so once empty the set stays empty.
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(ext_mu_);
      ext_cv_.wait(lk, [&] { return externals_.empty(); });
    }
    pool_->wait_idle();
    std::lock_guard<std::mutex> lock(ext_mu_);
    if (externals_.empty()) break;
  }
  // First-responder dump: a quiesce that surfaces new failures writes the
  // stall-report bundle (waits-for graph is empty here, but the recorder
  // tail and metrics capture the run-up) to stderr before anyone asks.
  // Opt out with IDXL_DUMP_ON_FAULT=0; read per call so tests can toggle.
  if (env_flag("IDXL_DUMP_ON_FAULT", true)) {
    const FaultReport report = faults_.report();
    const uint64_t total = report.failures.size() + report.poisoned.size();
    if (total != 0 && total != last_fault_dump_count_) {
      last_fault_dump_count_ = total;
      std::fputs("idxl: fence observed new task faults (", stderr);
      std::fprintf(stderr, "%zu failures, %zu poisoned); dumping state\n",
                   report.failures.size(), report.poisoned.size());
      std::fputs(stall_report().to_string().c_str(), stderr);
    }
  }
  if (active_trace_ == nullptr) {
    // Quiescence is a natural fence: every recorded task has completed, so
    // the tracker drops its uses, and every tree is back on no partition.
    tracker_.reset();
  }
}

double Future::get(Runtime& rt) const {
  IDXL_REQUIRE(valid(), "get() on an empty Future");
  rt.wait_all();
  LogScope reduce_scope(rt.log_, ProfCategory::kReduce, obs::EventLog::kNameFutureReduce);
  IDXL_ASSERT(!state_->values.empty());
  double acc = state_->values.front();
  for (std::size_t i = 1; i < state_->values.size(); ++i)
    acc = apply_reduction(state_->op, acc, state_->values[i]);
  return acc;
}

}  // namespace idxl
