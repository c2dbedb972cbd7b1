// Figure 7's stencil, re-run for real on the distributed backend: the same
// PRK star workload across 1-4 actual OS processes (fork-mode workers), with
// results verified against the serial reference. Writes BENCH_dist.json.
//
// Unlike the fig7 binary (which simulates the paper's 512-node sweep), every
// number here is a measured wall-clock throughput of real multi-process
// execution, so the series doubles as a regression check on the wire path.
// Each rank count runs twice — the star-hub baseline (every task outcome
// broadcast everywhere) and the delta data plane (halo-only transfers over
// direct worker links) — and the JSON carries both series plus the measured
// bytes-moved reduction, which CI gates against bench/baselines/dist.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/stencil.hpp"
#include "dist/dist_runtime.hpp"
#include "dist/smoke_tasks.hpp"
#include "fig_common.hpp"
#include "region/partition_ops.hpp"

using namespace idxl;

namespace {

struct Result {
  uint32_t ranks;
  double cells_per_s;
  double seconds;
  double max_err;
  dist::DataPlaneStats stats;
};

/// One measured run. `traced` turns on full distributed tracing (profiling
/// in every process, clock probes, merged trace at shutdown); `trace_path`
/// and `metrics_path` additionally write the merged Chrome trace and the
/// rank-aggregated metrics JSON — the CI artifacts.
Result run_once(uint32_t ranks, const apps::StencilParams& params, int iters,
                bool delta, bool traced = false,
                const std::string& trace_path = "",
                const std::string& metrics_path = "", bool warmup = false) {
  dist::DistConfig dc;
  dc.ranks = ranks;
  dc.runtime.workers = 2;
  dc.delta_transfers = delta;
  dc.runtime.enable_profiling = traced;
  dc.trace_path = trace_path;
  dist::DistributedRuntime rt(dc);
  auto& forest = rt.forest();
  const IndexSpaceId is =
      forest.create_index_space(Domain(Rect::box2(params.nx, params.ny)));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fin = forest.allocate_field(fs, sizeof(double), "in");
  const FieldId fout = forest.allocate_field(fs, sizeof(double), "out");
  const RegionId grid = forest.create_region(is, fs);
  const PartitionId blocks =
      partition_equal(forest, is, Rect::box2(params.px, params.py));
  const PartitionId halos = partition_halo(forest, is, blocks, params.radius);
  {
    Accessor<double> in(forest, grid, fin, Privilege::kWrite);
    Accessor<double> out(forest, grid, fout, Privilege::kWrite);
    for (const Point& p : Rect::box2(params.nx, params.ny)) {
      in.write(p, static_cast<double>(p[0] + p[1]));
      out.write(p, 0.0);
    }
  }
  const TaskFnId st = rt.register_task("smoke_stencil", dist::smoke::stencil_body);
  const TaskFnId inc =
      rt.register_task("smoke_increment", dist::smoke::increment_body);
  const TaskFnId noop = rt.register_task("bench_noop", [](TaskContext&) {});

  dist::smoke::StencilArgs args;
  args.fin = fin;
  args.fout = fout;
  args.radius = params.radius;
  args.nx = params.nx;
  args.ny = params.ny;
  const Domain dom = Domain(Rect::box2(params.px, params.py));
  const auto id = ProjectionFunctor::identity(2);

  // The first launch forks and handshakes the workers; the overhead gate
  // compares steady-state iteration cost, so it warms that up off-clock
  // with a read-only no-op that leaves the grid untouched.
  if (warmup) {
    rt.execute_index(IndexLauncher::over(dom)
                         .with_task(noop)
                         .region(grid, blocks, id, {fin}, Privilege::kRead));
    rt.wait_all();
  }

  const auto start = std::chrono::steady_clock::now();
  for (int it = 0; it < iters; ++it) {
    rt.execute_index(IndexLauncher::over(dom)
                         .with_task(st)
                         .scalars(ArgBuffer::of(args))
                         .region(grid, halos, id, {fin}, Privilege::kRead)
                         .region(grid, blocks, id, {fout},
                                 Privilege::kReadWrite));
    rt.execute_index(IndexLauncher::over(dom)
                         .with_task(inc)
                         .scalars(ArgBuffer::of(args))
                         .region(grid, blocks, id, {fin},
                                 Privilege::kReadWrite));
  }
  rt.wait_all();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Result r{ranks, 0.0, 0.0, 0.0, {}};
  r.seconds = seconds;
  r.cells_per_s =
      static_cast<double>(params.nx) * static_cast<double>(params.ny) * iters /
      seconds;
  r.stats = rt.data_plane_stats();
  if (!metrics_path.empty()) {
    const std::string json = rt.cluster_metrics_json();
    if (std::FILE* f = std::fopen(metrics_path.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  const std::vector<double> expect =
      apps::StencilApp::reference_output(params, iters);
  auto acc = rt.read_region<double>(grid, fout);
  std::size_t i = 0;
  for (const Point& p : Rect::box2(params.nx, params.ny))
    r.max_err = std::max(r.max_err, std::abs(acc.read(p) - expect[i++]));
  if (!rt.fault_report().ok()) r.max_err = HUGE_VAL;
  return r;
}

}  // namespace

/// Directory prefix shared with BENCH_dist.json for the trace/metrics
/// artifacts ($IDXL_BENCH_DIR, default cwd).
std::string artifact_path(const char* file) {
  std::string path;
  if (const char* dir = std::getenv("IDXL_BENCH_DIR")) {
    path = dir;
    if (!path.empty() && path.back() != '/') path += '/';
  }
  path += file;
  return path;
}

int main() {
  // The tracing-overhead comparison below needs the untraced arms genuinely
  // untraced; a stray IDXL_TRACE from the environment would force profiling
  // on in every run and hide the cost being measured.
  unsetenv("IDXL_TRACE");
  apps::StencilParams params;
  params.nx = params.ny = 96;
  params.px = params.py = 4;
  params.radius = 1;
  const int iters = 8;

  std::printf("Distributed stencil (real processes): %lldx%lld grid, "
              "%lldx%lld blocks, %d iterations\n",
              static_cast<long long>(params.nx),
              static_cast<long long>(params.ny),
              static_cast<long long>(params.px),
              static_cast<long long>(params.py), iters);
  std::printf("%8s %10s %14s %12s %12s %12s %10s\n", "ranks", "plane",
              "cells/s", "hub_bytes", "relay_bytes", "p2p_bytes", "max_err");

  bool ok = true;
  std::string points_hub = "[", points_delta = "[";
  Result hub4{}, delta4{};
  for (const uint32_t ranks : {1u, 2u, 3u, 4u}) {
    for (const bool delta : {false, true}) {
      const Result r = run_once(ranks, params, iters, delta);
      std::printf("%8u %10s %14.3e %12llu %12llu %12llu %10.3g\n", r.ranks,
                  delta ? "delta+p2p" : "star-hub", r.cells_per_s,
                  static_cast<unsigned long long>(r.stats.bytes_hub),
                  static_cast<unsigned long long>(r.stats.bytes_relay),
                  static_cast<unsigned long long>(r.stats.bytes_p2p),
                  r.max_err);
      ok = ok && r.max_err < 1e-12;
      std::string& points = delta ? points_delta : points_hub;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s[%u, %.6g, %llu]",
                    points.size() > 1 ? "," : "", r.ranks, r.cells_per_s,
                    static_cast<unsigned long long>(r.stats.bytes_total()));
      points += buf;
      if (ranks == 4) (delta ? delta4 : hub4) = r;
    }
  }
  points_hub += ']';
  points_delta += ']';

  // The tentpole number: payload bytes moved at 4 processes, delta+p2p
  // against the star-hub broadcast of the same program.
  const double reduction =
      delta4.stats.bytes_total() > 0
          ? static_cast<double>(hub4.stats.bytes_total()) /
                static_cast<double>(delta4.stats.bytes_total())
          : 0.0;
  std::printf("bytes moved @4 ranks: star-hub %llu, delta+p2p %llu "
              "(%.2fx reduction)\n",
              static_cast<unsigned long long>(hub4.stats.bytes_total()),
              static_cast<unsigned long long>(delta4.stats.bytes_total()),
              reduction);

  // Tracing overhead at 4 ranks, delta+p2p: best-of-5 wall clock with the
  // full distributed-tracing stack on (profiling in every process, clock
  // probes, trace-context stamping) against best-of-5 with it off. CI gates
  // the ratio at 1.05. The last traced run also writes the CI artifacts:
  // the merged clock-aligned Chrome trace and the cluster metrics JSON.
  const std::string trace_artifact = artifact_path("dist_stencil_trace.json");
  const std::string metrics_artifact =
      artifact_path("dist_stencil_cluster_metrics.json");
  // The sweep above uses deliberately tiny blocks (576 cells) to stress the
  // wire path; there an iteration is almost entirely IPC wake/sleep latency,
  // and a 5% budget on a mostly-idle denominator gates scheduler jitter, not
  // tracing. The overhead arms use production-shaped blocks instead so the
  // ratio measures tracing cost against real work. They are sized so the
  // untraced best-of-5 takes over 0.13 s: since task bodies check once per
  // run of cells and each rank completes a launch's points in one slice,
  // 16 iterations of a 512^2 grid take only ~0.03 s.
  apps::StencilParams oparams = params;
  oparams.nx = oparams.ny = 1024;  // 64k cells per block task
  const int oiters = iters * 5;    // longer arms shrink relative jitter
  double best_off = HUGE_VAL, best_on = HUGE_VAL;
  bool traced_ok = true;
  const int reps = 5;  // best-of-5: the gate compares floors, not averages
  for (int rep = 0; rep < reps; ++rep) {
    const Result off = run_once(4, oparams, oiters, /*delta=*/true,
                                /*traced=*/false, "", "", /*warmup=*/true);
    best_off = std::min(best_off, off.seconds);
    const bool last = rep == reps - 1;
    const Result on =
        run_once(4, oparams, oiters, /*delta=*/true, /*traced=*/true,
                 last ? trace_artifact : std::string(),
                 last ? metrics_artifact : std::string(), /*warmup=*/true);
    best_on = std::min(best_on, on.seconds);
    traced_ok = traced_ok && off.max_err < 1e-12 && on.max_err < 1e-12;
  }
  ok = ok && traced_ok;
  const double overhead_ratio = best_off > 0 ? best_on / best_off : HUGE_VAL;
  std::printf("tracing overhead @4 ranks: off %.3fs, on %.3fs (ratio %.3f)\n",
              best_off, best_on, overhead_ratio);
  std::printf("artifacts: %s, %s\n", trace_artifact.c_str(),
              metrics_artifact.c_str());

  bench::BenchJson payload;
  payload
      .field("description",
             "PRK star stencil on the DistributedRuntime, 1-4 fork-mode "
             "processes; points are [ranks, cells/s, payload_bytes] per data "
             "plane, verified bit-identical to the serial reference")
      .field("grid", std::to_string(params.nx) + "x" + std::to_string(params.ny))
      .field("iterations", iters)
      .raw("points_star_hub", points_hub)
      .raw("points_delta_p2p", points_delta)
      .field("bytes_hub_4ranks", hub4.stats.bytes_total())
      .field("bytes_delta_4ranks", delta4.stats.bytes_total())
      .field("bytes_p2p_4ranks", delta4.stats.bytes_p2p)
      .field("bytes_reduction_4ranks", reduction)
      .field("cells_per_s_hub_4ranks", hub4.cells_per_s)
      .field("cells_per_s_delta_4ranks", delta4.cells_per_s)
      .field("tracing_off_best_s", best_off)
      .field("tracing_on_best_s", best_on)
      .field("tracing_overhead_ratio", overhead_ratio)
      .field("verified", ok ? "true" : "false");
  bench::write_bench_json("dist", std::move(payload));

  if (!ok) {
    std::printf("FAILED: distributed result diverged from the reference\n");
    return 1;
  }
  return 0;
}
