// launch_storm: a local Runtime with 2 workers runs one untraced index
// launch over |D| = 1024 again and again, in windows of kWindow launches
// closed by wait_all. The launch goes through a disjoint equal partition
// with an identity functor and read-write privilege; each body increments
// its own block, so the final region contents prove every point ran exactly
// once per launch. Exercises the group dependence path, expansion, the
// pool, completion fan-out and the always-on flight recorder; analysis is
// one verdict-cache hit per launch.
#include <memory>

#include "harness.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

using namespace idxl;

namespace perfbench {
namespace {

constexpr int kWindow = 4;             // launches per window
constexpr int64_t kBlockElems = 4;     // elements per point's block

struct Storm {
  int64_t points = 1024;
  std::unique_ptr<Runtime> rt;
  RegionId region;
  FieldId field = 0;
  IndexLauncher launcher;
  std::vector<double> init;
  uint64_t launches = 0;  ///< issued so far, warm-up included
  double region_ns = 0;

  void build(bool traced, uint64_t seed) {
    RuntimeConfig cfg;
    cfg.workers = 2;
    cfg.enable_profiling = traced;
    rt = std::make_unique<Runtime>(cfg);
    launches = 0;
    RegionForest& forest = rt->forest();
    const uint64_t t0 = now_ns();
    const IndexSpaceId is = forest.create_index_space(Domain::line(points * kBlockElems));
    const FieldSpaceId fs = forest.create_field_space();
    field = forest.allocate_field(fs, sizeof(double), "count");
    region = forest.create_region(is, fs);
    const PartitionId blocks = partition_equal(forest, is, Rect::line(points));
    region_ns = static_cast<double>(now_ns() - t0);

    // Seeded initial contents: whole numbers, so increments stay exact.
    Rng rng(seed);
    init.resize(static_cast<std::size_t>(points * kBlockElems));
    Accessor<double> acc(forest, region, field, Privilege::kWrite);
    for (std::size_t i = 0; i < init.size(); ++i) {
      init[i] = static_cast<double>(rng.next_below(1u << 20));
      acc.write(Point::p1(static_cast<int64_t>(i)), init[i]);
    }

    const FieldId f = field;
    const TaskFnId inc = rt->register_task("storm_increment", [f](TaskContext& ctx) {
      auto a = ctx.region(0).accessor<double>(f);
      ctx.region(0).domain().for_each([&](const Point& p) { a.write(p, a.read(p) + 1.0); });
    });
    launcher = IndexLauncher::over(Domain::line(points))
                   .with_task(inc)
                   .region(region, blocks, ProjectionFunctor::identity(1), {field},
                           Privilege::kReadWrite);
    // Warm-up window: fills the verdict cache and the pool before timing.
    for (int i = 0; i < kWindow; ++i) rt->execute_index(launcher);
    rt->wait_all();
    launches += kWindow;
  }

  Phase measure(double seconds, SpanLog& log, ProfTotals* prof) {
    Phase ph;
    uint64_t harvest_ns = 0;
    const uint64_t start = now_ns();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    while (now_ns() < deadline) {
      const uint64_t w0 = now_ns();
      {
        SpanScope window(log, "bench.window");
        for (int i = 0; i < kWindow; ++i) {
          SpanScope s(log, "runtime.execute_index");
          rt->execute_index(launcher);
        }
        SpanScope s(log, "runtime.wait_all");
        rt->wait_all();
      }
      const uint64_t pts = kWindow * static_cast<uint64_t>(points);
      ph.windows.push_back({w0, now_ns(), pts, static_cast<double>(pts)});
      launches += kWindow;
      ph.launches += kWindow;
      // Drain the profiler while quiescent so a long traced phase keeps
      // bounded memory; the drain is not part of the measured time.
      if (prof != nullptr && ph.windows.size() % 16 == 0) {
        const uint64_t h0 = now_ns();
        prof->harvest(rt->profiler(), /*reset=*/true);
        harvest_ns += now_ns() - h0;
      }
    }
    ph.wall_s = static_cast<double>(now_ns() - start - harvest_ns) * 1e-9;
    if (prof != nullptr) prof->harvest(rt->profiler(), /*reset=*/true);
    ph.points = ph.launches * static_cast<uint64_t>(points);
    ph.items = static_cast<double>(ph.points);
    ph.attempted = ph.launches;
    ph.failed = verify(ph.launches);
    return ph;
  }

  /// Failed launches of the phase: those with a fault, or all of them when
  /// the region does not read initial value + launches issued.
  uint64_t verify(uint64_t phase_launches) {
    rt->wait_all();
    const uint64_t faulted = failed_launches(rt->fault_report());
    auto acc = rt->read_region<double>(region, field);
    for (std::size_t i = 0; i < init.size(); ++i)
      if (acc.read(Point::p1(static_cast<int64_t>(i))) !=
          init[i] + static_cast<double>(launches))
        return phase_launches;
    return std::min(faulted, phase_launches);
  }
};

}  // namespace

void run_launch_storm(const Options& opt, Report& report) {
  Storm storm;
  if (opt.tiny) storm.points = 64;
    const double setup_s = timed_setups(
      setup_reps(opt), [&] { storm.build(false, opt.seed); }, [&] { storm.rt.reset(); });

  SpanLog off(false, 0);
  const double untraced_s = opt.trace ? opt.seconds * 0.5 : opt.seconds;
  const Phase untraced = storm.measure(untraced_s, off, nullptr);
  report.attempted += untraced.attempted;
  report.failed += untraced.failed;
  if (!opt.trace) {
    report_end_to_end(report, setup_s, untraced);
    return;
  }

  storm.rt.reset();
  storm.build(true, opt.seed);
  SpanLog log(true, 0);
  CommonLayers layers;
  const Phase traced = storm.measure(opt.seconds - untraced_s, log, &layers.prof);
  layers.stats = storm.rt->stats();
  layers.flight_events = storm.rt->flight_recorder().recorded();
  layers.runtime_metrics = storm.rt->metrics().snapshot();
  layers.life_launches = storm.launches;
  layers.life_points = storm.launches * static_cast<uint64_t>(storm.points);
  const std::vector<const SpanLog*> logs{&log};
  layers.issue_ns = span_total_ns(logs, "runtime.execute_index");
  layers.wait_ns = span_total_ns(logs, "runtime.wait_all");
  layers.span_phase = true;
  layers.region_setup_ns = storm.region_ns;
  report.attempted += traced.attempted;
  report.failed += traced.failed;
  report_common_layers(report, layers, untraced, traced);
  report.layers = layer_times(logs);
  if (!opt.spans_path.empty()) write_spans(opt.spans_path, opt.workload, logs);
}

}  // namespace perfbench
