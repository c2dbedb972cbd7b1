// stencil_dist: the PRK star stencil (radius 1) on a 1024^2 grid in 16x16
// blocks — 256 points per launch, 4k cells per task — on a fork-mode
// DistributedRuntime with the delta data plane and direct worker links:
// 2 ranks x 1 worker. A window is one timestep (stencil + increment
// launches) closed by wait_all; the output is compared with
// apps::StencilApp::reference_output. The seed shifts the input field by a
// constant, which the star weights cancel exactly, so the reference holds
// bit for bit. The traced run adds the same problem on 1 rank as the plain
// baseline. This is the only workload through src/dist and src/net.
#include <cstdlib>
#include <memory>

#include "apps/stencil.hpp"
#include "dist/dist_runtime.hpp"
#include "dist/smoke_tasks.hpp"
#include "harness.hpp"
#include "region/partition_ops.hpp"
#include "support/rng.hpp"

using namespace idxl;

namespace perfbench {
namespace {

struct Stencil {
  apps::StencilParams params;
  uint32_t ranks = 2;
  double shift = 0;
  std::unique_ptr<dist::DistributedRuntime> rt;
  RegionId grid;
  PartitionId blocks, halos;
  dist::smoke::StencilArgs args;
  TaskFnId stencil = 0, increment = 0;
  uint64_t steps = 0;
  uint64_t launches = 0;  ///< index launches issued, the warm-up included
  double region_ns = 0;

  void build(bool traced) {
    rt.reset();  // joins the previous run's threads: fork needs none alive
    dist::DistConfig dc;
    dc.ranks = ranks;
    dc.runtime.workers = 1;
    dc.runtime.enable_profiling = traced;
    dc.delta_transfers = true;
    dc.p2p = true;
    rt = std::make_unique<dist::DistributedRuntime>(dc);
    RegionForest& forest = rt->forest();
    const uint64_t t0 = now_ns();
    const IndexSpaceId is = forest.create_index_space(Domain(Rect::box2(params.nx, params.ny)));
    const FieldSpaceId fs = forest.create_field_space();
    args.fin = forest.allocate_field(fs, sizeof(double), "in");
    args.fout = forest.allocate_field(fs, sizeof(double), "out");
    args.radius = params.radius;
    args.nx = params.nx;
    args.ny = params.ny;
    grid = forest.create_region(is, fs);
    blocks = partition_equal(forest, is, Rect::box2(params.px, params.py));
    halos = partition_halo(forest, is, blocks, params.radius);
    region_ns = static_cast<double>(now_ns() - t0);
    {
      Accessor<double> in(forest, grid, args.fin, Privilege::kWrite);
      Accessor<double> out(forest, grid, args.fout, Privilege::kWrite);
      for (const Point& p : Rect::box2(params.nx, params.ny)) {
        in.write(p, static_cast<double>(p[0] + p[1]) + shift);
        out.write(p, 0.0);
      }
    }
    stencil = rt->register_task("smoke_stencil", dist::smoke::stencil_body);
    increment = rt->register_task("smoke_increment", dist::smoke::increment_body);
    const TaskFnId noop = rt->register_task("bench_noop", [](TaskContext&) {});
    steps = 0;
    launches = 1;
    // The first launch forks and handshakes the workers; a read-only no-op
    // does it here, leaving the grid untouched.
    rt->execute_index(IndexLauncher::over(launch_domain())
                          .with_task(noop)
                          .region(grid, blocks, ProjectionFunctor::identity(2),
                                  {args.fin}, Privilege::kRead));
    rt->wait_all();
  }

  Domain launch_domain() const { return Domain(Rect::box2(params.px, params.py)); }

  Phase measure(double seconds, SpanLog& log) {
    Phase ph;
    const auto id = ProjectionFunctor::identity(2);
    const IndexLauncher st = IndexLauncher::over(launch_domain())
                                 .with_task(stencil)
                                 .scalars(ArgBuffer::of(args))
                                 .region(grid, halos, id, {args.fin}, Privilege::kRead)
                                 .region(grid, blocks, id, {args.fout}, Privilege::kReadWrite);
    const IndexLauncher inc = IndexLauncher::over(launch_domain())
                                  .with_task(increment)
                                  .scalars(ArgBuffer::of(args))
                                  .region(grid, blocks, id, {args.fin}, Privilege::kReadWrite);
    uint64_t phase_steps = 0;
    const uint64_t start = now_ns();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      const uint64_t w0 = now_ns();
      {
        SpanScope window(log, "bench.window");
        for (const IndexLauncher* l : {&st, &inc}) {
          SpanScope s(log, "dist.execute_index");
          rt->execute_index(*l);
        }
        SpanScope s(log, "dist.wait_all");
        rt->wait_all();
      }
      ph.windows.push_back({w0, now_ns(), 2 * static_cast<uint64_t>(launch_domain().volume()),
                            static_cast<double>(params.nx * params.ny)});
      ++phase_steps;
      ++steps;
      launches += 2;
    }
    ph.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
    ph.launches = 2 * phase_steps;
    ph.points = ph.launches * static_cast<uint64_t>(launch_domain().volume());
    ph.items = static_cast<double>(phase_steps) * static_cast<double>(params.nx * params.ny);
    ph.attempted = ph.launches;
    ph.failed = verify(ph.launches);
    return ph;
  }

  /// Failed launches of the phase: all of them when the output differs from
  /// the serial reference at all, else those with a faulted task.
  uint64_t verify(uint64_t phase_launches) {
    const uint64_t faulted = failed_launches(rt->fault_report());
    const std::vector<double> expect =
        apps::StencilApp::reference_output(params, static_cast<int>(steps));
    auto acc = rt->read_region<double>(grid, args.fout);
    std::size_t i = 0;
    for (const Point& p : Rect::box2(params.nx, params.ny))
      if (acc.read(p) != expect[i++]) return phase_launches;
    return std::min(faulted, phase_launches);
  }
};

}  // namespace

void run_stencil_dist(const Options& opt, Report& report) {
  // An inherited IDXL_TRACE would switch distributed tracing on in the
  // untraced phases.
  unsetenv("IDXL_TRACE");
  Stencil s;
  s.params.nx = s.params.ny = opt.tiny ? 64 : 1024;
  s.params.px = s.params.py = opt.tiny ? 4 : 16;
  s.params.radius = 1;
  s.shift = static_cast<double>(idxl::Rng(opt.seed).next_below(1u << 20));
  const double setup_s =
      timed_setups(setup_reps(opt), [&] { s.build(false); }, [&] { s.rt.reset(); });

  SpanLog off(false, 0);
  const double untraced_s = opt.trace ? opt.seconds * 0.4 : opt.seconds;
  const Phase untraced = s.measure(untraced_s, off);
  report.attempted += untraced.attempted;
  report.failed += untraced.failed;
  if (!opt.trace) {
    report_end_to_end(report, setup_s, untraced);
    return;
  }

  s.build(true);
  SpanLog log(true, 0);
  CommonLayers layers;
  Runtime& local = s.rt->local();
  const dist::DataPlaneStats plane_before = s.rt->data_plane_stats();
  const obs::MetricsSnapshot cluster_before = s.rt->cluster_metrics();
  const Phase traced = s.measure(opt.seconds * 0.4, log);
  const dist::DataPlaneStats plane_after = s.rt->data_plane_stats();
  const obs::MetricsSnapshot cluster_after = s.rt->cluster_metrics();
  layers.stats = local.stats();
  layers.flight_events = local.flight_recorder().recorded();
  layers.life_launches = s.launches;
  layers.life_points = s.launches * static_cast<uint64_t>(s.launch_domain().volume());
  layers.runtime_metrics = local.metrics().snapshot();
  layers.prof.harvest(local.profiler(), /*reset=*/false);
  layers.issue_ns = layers.prof.issue_ns;
  layers.wait_ns = layers.prof.wait_ns;
  layers.region_setup_ns = s.region_ns;
  report.attempted += traced.attempted;
  report.failed += traced.failed;
  report_common_layers(report, layers, untraced, traced);

  const std::vector<const SpanLog*> logs{&log};
  const double steps = static_cast<double>(traced.launches / 2);
  const auto launches = static_cast<double>(traced.launches);
  const auto net = [&](const char* family, obs::Labels match) {
    match.emplace_back("rank", "all");
    return static_cast<double>(counter_sum(cluster_after, family, match) -
                               counter_sum(cluster_before, family, match));
  };
  report.layer_only("dist.issue_ns_per_point",
                    static_cast<double>(span_total_ns(logs, "dist.execute_index")) /
                        static_cast<double>(traced.points),
                    "ns");
  report.layer_only("dist.wait_ns_per_step",
                    static_cast<double>(span_total_ns(logs, "dist.wait_all")) / steps, "ns");
  report.layer_only("dist.bytes_per_step",
                    static_cast<double>(plane_after.bytes_total() - plane_before.bytes_total()) /
                        steps,
                    "B");
  report.layer_only("dist.transfers_per_step",
                    static_cast<double>(plane_after.transfers - plane_before.transfers) / steps,
                    "count");
  report.layer_only("net.frames_per_launch", net("idxl_net_frames_sent_total", {}) / launches,
                    "count");
  report.layer_only("net.task_done_frames_per_launch",
                    net("idxl_net_frames_sent_total", {{"type", "task-done"}}) / launches,
                    "count");
  report.layer_only("net.bytes_per_launch", net("idxl_net_bytes_sent_total", {}) / launches,
                    "B");
  report.layers = layer_times(logs);
  if (!opt.spans_path.empty()) write_spans(opt.spans_path, opt.workload, logs);

  // The plain baseline: the same problem on one rank. A gain that moves the
  // 2-rank number but not this one came from the wire plane.
  s.ranks = 1;
  s.build(false);
  const Phase one = s.measure(opt.seconds * 0.2, off);
  s.rt.reset();
  report.attempted += one.attempted;
  report.failed += one.failed;
  const double cells_1r = median_rate(one, /*points=*/false);
  report.layer_only("dist.cells_per_s_1r", cells_1r, "cells/s");
  report.layer_only("dist.scaling_2r", median_rate(untraced, /*points=*/false) / cells_1r, "ratio");
}

}  // namespace perfbench
