// Runtime wiring of the inter-launch interference analysis: certified
// kDisjoint pair verdicts short-circuit the group-tier dependence walk, and
// the verdicts are cached across fences.
#include <gtest/gtest.h>

#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"

namespace idxl {
namespace {

struct Fixture {
  Runtime rt;
  IndexSpaceId is;
  FieldSpaceId fs;
  FieldId fv = 0;
  FieldId fw = 0;
  RegionId region;
  PartitionId blocks;

  explicit Fixture(int64_t n, int64_t pieces, RuntimeConfig cfg = {}) : rt(cfg) {
    auto& forest = rt.forest();
    is = forest.create_index_space(Domain::line(n));
    fs = forest.create_field_space();
    fv = forest.allocate_field(fs, sizeof(double), "v");
    fw = forest.allocate_field(fs, sizeof(double), "w");
    region = forest.create_region(is, fs);
    blocks = partition_equal(forest, is, Rect::line(pieces));
  }
};

TaskFnId register_store(Runtime& rt) {
  return rt.register_task("store", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(ctx.arg<FieldId>());
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, 1.0); });
  });
}

IndexLauncher writer(const Fixture& fx, TaskFnId task, FieldId field,
                     ProjectionFunctor functor, int64_t n = 16) {
  return IndexLauncher::over(Domain::line(n))
      .with_task(task)
      .region(fx.region, fx.blocks, std::move(functor), {field},
              Privilege::kWrite)
      .scalars(field);
}

// ---------- local skip path ----------

// Two writer launches on the same tree touching disjoint fields: the second
// launch's group walk would test every point against the first launch's uses
// and find nothing. The field-disjointness certificate proves that up front,
// so the walk is skipped and the per-use counters stay at zero.
TEST(InterferenceRuntimeTest, DisjointFieldWritersSkipGroupWalk) {
  Fixture fx(64, 16);
  const TaskFnId store = register_store(fx.rt);
  fx.rt.execute_index(writer(fx, store, fx.fv, ProjectionFunctor::identity(1)));
  fx.rt.execute_index(writer(fx, store, fx.fw, ProjectionFunctor::identity(1)));
  fx.rt.wait_all();

  const RuntimeStats stats = fx.rt.stats();
  EXPECT_EQ(stats.group_launches, 2u);
  EXPECT_EQ(stats.interference_pair_tests, 1u);
  EXPECT_EQ(stats.interference_skips, 1u);
  EXPECT_EQ(stats.dependence_tests, 0u);
  EXPECT_EQ(stats.dependence_edges, 0u);

  for (FieldId f : {fx.fv, fx.fw}) {
    auto acc = fx.rt.read_region<double>(fx.region, f);
    Domain::line(64).for_each(
        [&](const Point& p) { EXPECT_DOUBLE_EQ(acc.read(p), 1.0); });
  }
}

// Same program with the analysis disabled: the second launch's scan walks
// the first launch's 16 uses (one per shared color) — the baseline cost the
// certificate removes.
TEST(InterferenceRuntimeTest, KnobOffRunsTheBaselineWalk) {
  RuntimeConfig cfg;
  cfg.enable_interference_analysis = false;
  Fixture fx(64, 16, cfg);
  const TaskFnId store = register_store(fx.rt);
  fx.rt.pool().pause();  // keep launch 1's uses live while launch 2 issues
  fx.rt.execute_index(writer(fx, store, fx.fv, ProjectionFunctor::identity(1)));
  fx.rt.execute_index(writer(fx, store, fx.fw, ProjectionFunctor::identity(1)));
  const RuntimeStats stats = fx.rt.stats();
  fx.rt.pool().resume();
  fx.rt.wait_all();

  EXPECT_EQ(stats.group_launches, 2u);
  EXPECT_EQ(stats.interference_pair_tests, 0u);
  EXPECT_EQ(stats.interference_skips, 0u);
  EXPECT_EQ(stats.dependence_tests, 16u);  // per-color probe of launch 1's uses
  EXPECT_EQ(stats.dependence_edges, 0u);   // disjoint fields: no edge emitted
}

// Writers whose functor images overlap must not skip: the pair verdict is
// kInterferes (with a validated witness inside the analyzer), the walk runs,
// and every second-launch point chains behind its same-color predecessor.
TEST(InterferenceRuntimeTest, OverlappingWritersStillWalk) {
  Fixture fx(64, 16);
  const TaskFnId store = register_store(fx.rt);
  fx.rt.pool().pause();  // keep launch 1's uses live while launch 2 issues
  fx.rt.execute_index(writer(fx, store, fx.fv, ProjectionFunctor::identity(1)));
  fx.rt.execute_index(writer(fx, store, fx.fv, ProjectionFunctor::identity(1)));
  const RuntimeStats stats = fx.rt.stats();
  fx.rt.pool().resume();
  fx.rt.wait_all();

  EXPECT_EQ(stats.group_launches, 2u);
  EXPECT_EQ(stats.interference_pair_tests, 1u);
  EXPECT_EQ(stats.interference_skips, 0u);
  EXPECT_EQ(stats.dependence_edges, 16u);  // one edge per shared color
}

// Image-separated writers of the *same* field: launch A covers the even
// colors (2i), launch B the odd ones (2i + 1). The residue-class certificate
// proves separation, so B skips even though the union field masks collide.
TEST(InterferenceRuntimeTest, ResidueSeparatedWritersSkip) {
  Fixture fx(64, 16);
  const TaskFnId store = register_store(fx.rt);
  const auto strided = [](int64_t offset) {
    return ProjectionFunctor::symbolic(
        {make_add(make_mul(make_const(2), make_coord(0)), make_const(offset))});
  };
  fx.rt.execute_index(writer(fx, store, fx.fv, strided(0), 8));
  fx.rt.execute_index(writer(fx, store, fx.fv, strided(1), 8));
  fx.rt.wait_all();

  const RuntimeStats stats = fx.rt.stats();
  EXPECT_EQ(stats.group_launches, 2u);
  EXPECT_EQ(stats.interference_pair_tests, 1u);
  EXPECT_EQ(stats.interference_skips, 1u);
  EXPECT_EQ(stats.dependence_edges, 0u);
  auto acc = fx.rt.read_region<double>(fx.region, fx.fv);
  Domain::line(64).for_each(
      [&](const Point& p) { EXPECT_DOUBLE_EQ(acc.read(p), 1.0); });
}

// ---------- cache behaviour across fences ----------

// Pair verdicts are properties of launch *shapes*, not of runtime state, so
// the cache must survive the fences that reset both dependence tiers: the
// second epoch re-tests the pair but is served from the cache.
TEST(InterferenceRuntimeTest, VerdictsPersistAcrossFences) {
  Fixture fx(64, 16);
  const TaskFnId store = register_store(fx.rt);
  for (int epoch = 0; epoch < 3; ++epoch) {
    fx.rt.execute_index(writer(fx, store, fx.fv, ProjectionFunctor::identity(1)));
    fx.rt.execute_index(writer(fx, store, fx.fw, ProjectionFunctor::identity(1)));
    fx.rt.wait_all();
  }
  const RuntimeStats stats = fx.rt.stats();
  EXPECT_EQ(stats.interference_pair_tests, 1u);  // analyzed once, ever
  EXPECT_EQ(stats.interference_skips, 3u);       // skipped every epoch
  EXPECT_EQ(stats.interference_cache_hits, 2u);  // epochs 2 and 3
}

}  // namespace
}  // namespace idxl
