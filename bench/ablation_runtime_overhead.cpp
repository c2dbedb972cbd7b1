// Ablation on the *real* runtime (not the machine simulator): wall-clock
// issuance cost of an index launch vs the equivalent per-task loop, and the
// effect of trace replay on dependence analysis. Task bodies are no-ops so
// the measurement isolates runtime overhead — the quantity index launches
// exist to compress. Each cell is the median of kRepetitions runs;
// `traced_over_untraced_1024` (traced / untraced index launch at the largest
// |D|) is the CI gate that keeps a replayed launch no dearer than a live one.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "fig_common.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "support/stats.hpp"

using namespace idxl;

namespace {

struct Setup {
  Runtime rt;
  RegionId region;
  PartitionId blocks;
  TaskFnId noop;

  Setup(RuntimeConfig cfg, int64_t tasks) : rt(cfg) {
    auto& forest = rt.forest();
    const IndexSpaceId is = forest.create_index_space(Domain::line(tasks * 4));
    const FieldSpaceId fs = forest.create_field_space();
    forest.allocate_field(fs, sizeof(double), "v");
    region = forest.create_region(is, fs);
    blocks = partition_equal(forest, is, Rect::line(tasks));
    noop = rt.register_task("noop", [](TaskContext&) {});
  }

  double issue_us_per_task(int64_t tasks, int launches, bool traced) {
    IndexLauncher launcher;
    launcher.task = noop;
    launcher.domain = Domain::line(tasks);
    launcher.args = {{region, blocks, ProjectionFunctor::identity(1), {0},
                      Privilege::kReadWrite, ReductionOp::kNone}};
    // Warmup launch (captures the trace when tracing is used).
    if (traced) rt.begin_trace(1);
    rt.execute_index(launcher);
    if (traced) rt.end_trace(1);
    rt.wait_all();

    Stopwatch watch;
    for (int l = 0; l < launches; ++l) {
      if (traced) rt.begin_trace(1);
      rt.execute_index(launcher);
      if (traced) rt.end_trace(1);
    }
    rt.wait_all();
    return watch.elapsed_us() / static_cast<double>(launches) /
           static_cast<double>(tasks);
  }
};

}  // namespace

int main() {
  const int64_t task_counts[] = {64, 256, 1024};
  const int launches = 20;
  constexpr int kRepetitions = 5;
  double index_1024 = 0.0, traced_1024 = 0.0;

  std::printf("Ablation: real-runtime issuance+analysis overhead, us per task\n");
  std::printf("%-34s", "configuration");
  for (int64_t t : task_counts) std::printf("%10lld", static_cast<long long>(t));
  std::printf("   (tasks per launch)\n");

  std::string rows_json = "[";
  auto row = [&](const char* name, bool idx, bool traced, double* us_1024) {
    std::printf("%-34s", name);
    if (rows_json.size() > 1) rows_json += ',';
    rows_json += "{\"label\": " + bench::BenchJson::quote(name) +
                 ", \"us_per_task\": [";
    for (int64_t t : task_counts) {
      RuntimeConfig cfg;
      cfg.enable_index_launches = idx;
      cfg.workers = 2;
      Setup setup(cfg, t);
      std::vector<double> reps;
      for (int r = 0; r < kRepetitions; ++r)
        reps.push_back(setup.issue_us_per_task(t, launches, traced));
      std::nth_element(reps.begin(), reps.begin() + kRepetitions / 2, reps.end());
      const double us = reps[kRepetitions / 2];
      if (t == 1024 && us_1024 != nullptr) *us_1024 = us;
      std::printf("%10.2f", us);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.6g", t == task_counts[0] ? "" : ",", us);
      rows_json += buf;
    }
    rows_json += "]}";
    std::printf("\n");
  };

  row("index launch", true, false, &index_1024);
  row("index launch + tracing", true, true, &traced_1024);
  row("task loop (No IDX)", false, false, nullptr);
  rows_json += ']';
  const double traced_over_untraced = index_1024 > 0 ? traced_1024 / index_1024 : 0.0;
  std::printf("traced / untraced index launch at |D| = 1024: %.2f\n", traced_over_untraced);
  std::printf(
      "expected: the index launch's per-task cost falls with |D| (one bulk "
      "call amortized); a replayed launch costs no more than a live one; the "
      "task loop pays a full runtime call per task.\n");

  bench::BenchJson payload;
  std::string counts = "[";
  for (int64_t t : task_counts) {
    if (counts.size() > 1) counts += ',';
    counts += std::to_string(t);
  }
  counts += ']';
  payload.raw("tasks_per_launch", std::move(counts));
  payload.field("launches", launches);
  payload.field("repetitions", kRepetitions);
  payload.field("traced_over_untraced_1024", traced_over_untraced);
  payload.raw("rows", std::move(rows_json));
  bench::write_bench_json("ablation_runtime_overhead", std::move(payload));
  return 0;
}
