// Pipeline breakdown (the quantitative companion to the paper's Figs. 2/3):
// for Circuit weak scaling at three node counts, show where runtime-
// processor time goes per configuration — summed busy seconds per pipeline
// stage across all nodes and timed iterations. The IDX columns' issuance
// stays flat while the No-IDX columns' issuance scales with total task
// count; distribution only appears where the configuration actually moves
// task descriptors.
#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "apps/circuit.hpp"
#include "apps/sim_specs.hpp"
#include "fig_common.hpp"
#include "functor/expr.hpp"
#include "region/partition_ops.hpp"
#include "sim/experiment.hpp"

using namespace idxl;
using namespace idxl::sim;

// ---------- issue-phase microbenchmark ----------
//
// How long does the issuing thread spend per point when issuing a safe index
// launch through a disjoint partition, and does that time stay flat in |D|?
// Two read-write chains over equal blocks: the plain chain, whose region tree
// stays on one disjoint partition (the tracker's whole-partition rule), and
// the same chain plus a halo read of a second field of the same tree, which
// marks the tree mixed, so every use looks its candidates up in the forest's
// overlap index. Each chain is timed at |D| = 1024 and |D| = 4096 over equal
// point counts; a tracker that scanned its live entries would cost about 4x
// per point at the larger domain. Writes machine-readable results to
// BENCH_issue.json (see bench_json_path() for the override knobs), with the
// measured cost of the on-by-default flight recorder on the same issue path
// and the residue-class writer chain's dependence counts.

struct IssueBench {
  double issue_s = 0;  // issuing-thread seconds across timed launches
  double ns_per_point = 0;
  uint64_t dependence_edges = 0;
  uint64_t dependence_tests = 0;
};

/// One runtime issuing the read-write chain over `pieces` blocks, with or
/// without the halo read.
class IssueChain {
 public:
  IssueChain(int64_t pieces, bool halo) {
    auto& forest = rt_.forest();
    const IndexSpaceId is = forest.create_index_space(Domain::line(pieces * 16));
    const FieldSpaceId fs = forest.create_field_space();
    const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
    const FieldId fw = forest.allocate_field(fs, sizeof(double), "w");
    const RegionId region = forest.create_region(is, fs);
    const PartitionId blocks = partition_equal(forest, is, Rect::line(pieces));
    const TaskFnId noop = rt_.register_task("noop", [](TaskContext&) {});
    launcher_ = IndexLauncher::over(Domain::line(pieces))
                    .with_task(noop)
                    .region(region, blocks, ProjectionFunctor::identity(1), {fv},
                            Privilege::kReadWrite);
    if (halo)
      launcher_.region(region, partition_halo(forest, is, blocks, 1),
                       ProjectionFunctor::identity(1), {fw}, Privilege::kRead);
    pieces_ = pieces;
    for (int i = 0; i < 3; ++i) rt_.execute_index(launcher_);  // warm caches/tables
    rt_.wait_all();
  }

  Runtime& runtime() { return rt_; }
  const IndexLauncher& launcher() const { return launcher_; }

  /// Issue `iters` launches with the workers paused, so the measurement
  /// isolates the issuing thread (analysis, dependence wiring, node
  /// creation) — otherwise worker execution shares the cores and pollutes
  /// the issue-phase number. Timed with the issuing thread's CPU clock, not
  /// wall clock: on a shared machine preemption by unrelated processes
  /// inflates wall time by far more than the effects this resolves.
  IssueBench issue(int iters) {
    rt_.pool().pause();
    const RuntimeStats before = rt_.stats();
    timespec t0{}, t1{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
    for (int i = 0; i < iters; ++i) rt_.execute_index(launcher_);
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
    const RuntimeStats after = rt_.stats();
    rt_.pool().resume();
    rt_.wait_all();
    IssueBench r;
    r.issue_s = static_cast<double>(t1.tv_sec - t0.tv_sec) +
                static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-9;
    r.ns_per_point = r.issue_s * 1e9 / (static_cast<double>(iters) * static_cast<double>(pieces_));
    r.dependence_edges = after.dependence_edges - before.dependence_edges;
    r.dependence_tests = after.dependence_tests - before.dependence_tests;
    return r;
  }

 private:
  Runtime rt_;
  IndexLauncher launcher_;
  int64_t pieces_ = 0;
};

// Best-of-N repetitions: single-run timings on a loaded (or single-core)
// machine carry first-run bias — page faults, allocator growth, cold
// branch predictors — that dwarfs the effects being measured. The minimum
// over several fresh runtimes is the standard noise-resistant estimator
// for a lower-bound cost.
static IssueBench best_of(int reps, int64_t pieces, int iters, bool halo) {
  IssueBench best;
  for (int r = 0; r < reps; ++r) {
    IssueChain chain(pieces, halo);
    const IssueBench b = chain.issue(iters);
    if (r == 0 || b.issue_s < best.issue_s) best = b;
  }
  return best;
}

// ---------- the residue-class writer chain ----------
//
// `stride` launches over one disjoint partition, launch j writing colors
// ≡ j (mod stride) of the same field: no two launches of an epoch touch the
// same color, so a steady-state epoch needs no dependence test and no edge.
// The tracker gets there because every use's only candidate is its own
// color's slot, which the fence emptied.

struct ResidueChainCounts {
  uint64_t dependence_tests = 0;  // in one steady-state epoch
  uint64_t dependence_edges = 0;
};

static ResidueChainCounts residue_chain(int64_t pieces, int stride) {
  Runtime rt;
  auto& forest = rt.forest();
  const int64_t colors = pieces * stride;
  const IndexSpaceId is = forest.create_index_space(Domain::line(colors * 4));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(colors));
  const TaskFnId noop = rt.register_task("noop", [](TaskContext&) {});
  std::vector<IndexLauncher> launchers;
  for (int j = 0; j < stride; ++j)
    launchers.push_back(
        IndexLauncher::over(Domain::line(pieces))
            .with_task(noop)
            .region(region, blocks,
                    ProjectionFunctor::symbolic({make_add(
                        make_mul(make_const(stride), make_coord(0)), make_const(j))}),
                    {fv}, Privilege::kWrite));
  ResidueChainCounts r;
  for (int epoch = 0; epoch < 2; ++epoch) {  // a warm epoch, then a steady one
    rt.pool().pause();
    const RuntimeStats before = rt.stats();
    for (const IndexLauncher& l : launchers) rt.execute_index(l);
    const RuntimeStats after = rt.stats();
    rt.pool().resume();
    rt.wait_all();
    r.dependence_tests = after.dependence_tests - before.dependence_tests;
    r.dependence_edges = after.dependence_edges - before.dependence_edges;
  }
  return r;
}

static void issue_phase_breakdown() {
  // Equal point counts at both domain sizes, so per-point times compare.
  const int64_t small = 1024, large = 4096;
  const int64_t points = 65536;
  const int reps = 5;
  struct Chain {
    const char* name;
    bool halo;
    IssueBench at_small, at_large;
    double scaling = 0;  // ns per point at |D| = large over |D| = small
  };
  Chain chains[] = {{"disjoint", false, {}, {}}, {"halo", true, {}, {}}};
  std::printf("\nIssue-phase microbenchmark: read-write chain over equal blocks, "
              "%lld points per measurement, best of %d, pool paused\n",
              static_cast<long long>(points), reps);
  std::printf("%-10s%8s%14s%14s%16s%14s\n", "chain", "|D|", "issue s", "ns/point",
              "dep edges", "dep tests");
  for (Chain& c : chains) {
    c.at_small = best_of(reps, small, static_cast<int>(points / small), c.halo);
    c.at_large = best_of(reps, large, static_cast<int>(points / large), c.halo);
    c.scaling = c.at_large.ns_per_point / c.at_small.ns_per_point;
    for (const auto& [d, r] : {std::pair{small, &c.at_small}, std::pair{large, &c.at_large}})
      std::printf("%-10s%8lld%14.4f%14.1f%16llu%14llu\n", c.name, static_cast<long long>(d),
                  r->issue_s, r->ns_per_point,
                  static_cast<unsigned long long>(r->dependence_edges),
                  static_cast<unsigned long long>(r->dependence_tests));
    std::printf("%-10s issue time per point, |D| = %lld over |D| = %lld: %.2fx\n", c.name,
                static_cast<long long>(large), static_cast<long long>(small), c.scaling);
  }

  // Residue-class chain: 16 launches per epoch, 512 colors each.
  const ResidueChainCounts residue = residue_chain(512, 16);
  std::printf("\nResidue-class writer chain: 16 launches of 512 colors, one shared field; "
              "one steady epoch makes %llu dependence tests and %llu edges\n",
              static_cast<unsigned long long>(residue.dependence_tests),
              static_cast<unsigned long long>(residue.dependence_edges));

  // What does the on-by-default flight recorder cost on this exact path?
  // Toggle recording on and off on ONE runtime (Runtime::
  // set_flight_recording), interleaved at a fine grain — 10-launch
  // segments, hundreds of them — and sum each configuration's
  // issuing-thread CPU time. Machine-load bursts last far longer than a
  // segment, so they contaminate both configurations equally and cancel
  // in the ratio; coarse schemes (fresh process or long segment per
  // configuration, wall clocks, best-of-N) all carry noise an order of
  // magnitude above the effect measured (the acceptance budget is 5%).
  // The reported figure is the median of 9 such trials: a median of 3
  // 5-launch trials still read over 5% about one run in ten.
  // Per-point events are constructed inside the chunk jobs on the
  // workers, so the issuing thread only pays one clock read per launch
  // plus the launch-level records.
  const int oh_trials = 9;
  const int oh_segments = 400;  // alternating on/off
  const int oh_launches = 10;   // per segment
  double on_s = 0, off_s = 0;
  std::vector<double> trial_pcts;
  obs::MetricsSnapshot metrics;
  {
    IssueChain chain(small, /*halo=*/false);
    Runtime& rt = chain.runtime();
    for (int i = 0; i < 10; ++i) rt.execute_index(chain.launcher());
    rt.wait_all();

    std::vector<std::pair<double, double>> trials;  // (on_s, off_s)
    for (int trial = 0; trial < oh_trials; ++trial) {
      double on = 0, off = 0;
      for (int seg = 0; seg < oh_segments; ++seg) {
        const bool recorder_on = (seg % 2 == 0);
        rt.wait_all();  // quiesce: set_flight_recording needs an idle runtime
        rt.set_flight_recording(recorder_on);
        timespec t0{}, t1{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t0);
        for (int i = 0; i < oh_launches; ++i) rt.execute_index(chain.launcher());
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t1);
        (recorder_on ? on : off) +=
            static_cast<double>(t1.tv_sec - t0.tv_sec) +
            static_cast<double>(t1.tv_nsec - t0.tv_nsec) * 1e-9;
      }
      rt.wait_all();
      trials.emplace_back(on, off);
      trial_pcts.push_back((on / off - 1.0) * 100.0);
    }
    rt.set_flight_recording(true);
    metrics = rt.metrics().snapshot();
    // Median trial: robust to a few trials landing inside a load regime
    // shift.
    std::vector<double> sorted = trial_pcts;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    for (std::size_t i = 0; i < trial_pcts.size(); ++i) {
      if (trial_pcts[i] == median) {
        on_s = trials[i].first;
        off_s = trials[i].second;
        break;
      }
    }
  }
  const double recorder_overhead_pct = (on_s / off_s - 1.0) * 100.0;
  std::printf("flight-recorder issue-phase overhead: %.2f%% "
              "(median of %d interleaved trials: on %.4fs vs off %.4fs; "
              "all trials:", recorder_overhead_pct, oh_trials, on_s, off_s);
  for (double pct : trial_pcts) std::printf(" %+.2f%%", pct);
  std::printf(")\n");

  auto config_json = [](const IssueBench& r) {
    bench::BenchJson b;
    b.field("issue_s", r.issue_s)
        .field("ns_per_point", r.ns_per_point)
        .field("dependence_edges", r.dependence_edges)
        .field("dependence_tests", r.dependence_tests);
    std::string out = "{";
    for (std::size_t i = 0; i < b.fields().size(); ++i) {
      if (i != 0) out += ", ";
      out += bench::BenchJson::quote(b.fields()[i].first) + ": " + b.fields()[i].second;
    }
    out += '}';
    return out;
  };
  bench::BenchJson payload;
  payload.field("points", points)
      .raw("disjoint_1024", config_json(chains[0].at_small))
      .raw("disjoint_4096", config_json(chains[0].at_large))
      .raw("halo_1024", config_json(chains[1].at_small))
      .raw("halo_4096", config_json(chains[1].at_large))
      .field("issue_scaling_disjoint", chains[0].scaling)
      .field("issue_scaling_halo", chains[1].scaling)
      .field("residue_chain_dependence_tests", residue.dependence_tests)
      .field("residue_chain_dependence_edges", residue.dependence_edges)
      .field("flight_recorder_on_s", on_s)
      .field("flight_recorder_off_s", off_s)
      .field("flight_recorder_overhead_pct", recorder_overhead_pct);
  // The metrics snapshot comes from the flight-recorder runtime.
  bench::write_bench_json("issue", std::move(payload), metrics);
}

// The simulator predicts the stage breakdown; the in-process runtime can
// *measure* one. Run the real Circuit app under the profiler and print busy
// time per pipeline event; with IDXL_TRACE=<path> in the environment, also
// write a Chrome-trace JSON of the run.
static void measured_breakdown() {
  RuntimeConfig cfg;
  cfg.enable_profiling = true;
  Runtime rt(cfg);
  apps::CircuitParams params;
  params.pieces = 16;
  params.iterations = 10;
  apps::CircuitApp app(rt, params);
  app.run(params.iterations);

  std::printf("\nMeasured on the in-process runtime (Circuit, %lld pieces, "
              "%d iterations):\n",
              static_cast<long long>(params.pieces), params.iterations);
  std::printf("%s", rt.profiler().summary().c_str());
  if (const char* path = std::getenv("IDXL_TRACE")) {
    rt.profiler().write_chrome_trace(path);
    std::printf("wrote Chrome trace to %s\n", path);
  }
}

int main() {
  for (uint32_t nodes : {16u, 256u, 1024u}) {
    std::printf("\nCircuit weak scaling, %u nodes — busy seconds by stage "
                "(all nodes, 10 iterations)\n",
                nodes);
    std::printf("%-18s%12s%12s%12s%12s%12s\n", "config", "issue+log", "dynchk",
                "distribute", "physical", "kernel");
    for (const SimConfig& base : four_configs()) {
      SimConfig config = base;
      config.nodes = nodes;
      const SimResult r = simulate(apps::circuit_weak_spec(nodes), config);
      std::printf("%-18s%12.4f%12.4f%12.4f%12.4f%12.1f\n", config.label().c_str(),
                  r.stages.issue_s, r.stages.check_s, r.stages.distribution_s,
                  r.stages.physical_s, r.stages.kernel_s);
    }
  }
  std::printf(
      "\nexpected: IDX issuance is per-launch (flat in total task count); "
      "No-IDX issuance grows ~linearly with nodes under DCR (replicated) and "
      "concentrates on node 0 without DCR.\n");

  issue_phase_breakdown();
  measured_breakdown();
  return 0;
}
