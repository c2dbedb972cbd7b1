#include <gtest/gtest.h>

#include "compiler/compile.hpp"
#include "compiler/transform.hpp"
#include "region/partition_ops.hpp"

namespace idxl::regent {
namespace {

struct Fixture {
  Runtime rt;
  IndexSpaceId is;
  FieldSpaceId fs;
  FieldId fv = 0;
  RegionId region;
  PartitionId blocks;
  TaskFnId stamp = 0;  // writes the launch point into every element
  TaskFnId touch = 0;  // reads arg0, writes arg1

  explicit Fixture(int64_t n, int64_t pieces) {
    auto& forest = rt.forest();
    is = forest.create_index_space(Domain::line(n));
    fs = forest.create_field_space();
    fv = forest.allocate_field(fs, sizeof(double), "v");
    region = forest.create_region(is, fs);
    blocks = partition_equal(forest, is, Rect::line(pieces));
    stamp = rt.register_task("stamp", [](TaskContext& ctx) {
      auto acc = ctx.region(0).accessor<double>(0);
      ctx.region(0).domain().for_each(
          [&](const Point& p) { acc.write(p, static_cast<double>(ctx.point[0])); });
    });
    touch = rt.register_task("touch", [](TaskContext& ctx) {
      auto in = ctx.region(0).accessor<double>(0);
      auto out = ctx.region(1).accessor<double>(0);
      double sum = 0;
      ctx.region(0).domain().for_each([&](const Point& p) { sum += in.read(p); });
      ctx.region(1).domain().for_each([&](const Point& p) { out.write(p, sum); });
    });
  }

  std::vector<double> values() {
    rt.wait_all();
    auto acc = rt.read_region<double>(region, fv);
    std::vector<double> out;
    const auto& dom = rt.forest().domain(is);
    dom.for_each([&](const Point& p) { out.push_back(acc.read(p)); });
    return out;
  }
};

TaskCallStmt write_call(const Fixture& fx, std::vector<ExprPtr> index) {
  TaskCallStmt call;
  call.task = fx.stamp;
  call.args = {{fx.region, fx.blocks, std::move(index), {fx.fv}, Privilege::kWrite,
                ReductionOp::kNone}};
  return call;
}

TEST(CompilerTest, IdentityLoopBecomesIndexLaunch) {
  Fixture fx(32, 8);
  ForLoop loop;
  loop.domain = Domain::line(8);
  loop.body = {write_call(fx, {make_coord(0)})};

  const CompiledLoop compiled = compile_loop(loop, fx.rt.forest());
  EXPECT_EQ(compiled.strategy(), LoopStrategy::kIndexLaunch);
  EXPECT_TRUE(compiled.diagnostics().eligible);

  const LoopRunResult run = compiled.execute(fx.rt);
  EXPECT_TRUE(run.ran_as_index_launch);
  EXPECT_FALSE(run.dynamic_check_ran);
  fx.rt.wait_all();
  // Statically verified: the runtime performed no safety analysis.
  EXPECT_EQ(fx.rt.stats().launches_assumed_verified, 1u);
  EXPECT_EQ(fx.rt.stats().runtime_calls, 1u);

  const auto v = fx.values();
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[31], 7.0);
}

TEST(CompilerTest, SafeModularLoopCompilesToBareIndexLaunch) {
  Fixture fx(32, 8);
  ForLoop loop;
  loop.domain = Domain::line(8);
  // (i + 3) % 8 is injective over [0,8): the abstract interpreter's
  // residue-class analysis proves it at compile time, so the optimizer
  // emits a bare index launch with no dynamic guard at all.
  loop.body = {write_call(
      fx, {make_mod(make_add(make_coord(0), make_const(3)), make_const(8))})};

  const CompiledLoop compiled = compile_loop(loop, fx.rt.forest());
  EXPECT_EQ(compiled.strategy(), LoopStrategy::kIndexLaunch);

  const LoopRunResult run = compiled.execute(fx.rt);
  EXPECT_FALSE(run.dynamic_check_ran);
  EXPECT_TRUE(run.ran_as_index_launch);
  EXPECT_EQ(run.dynamic_check_points, 0u);

  const auto v = fx.values();
  // Block (i+3)%8 is stamped with i: block 0 stamped by i=5.
  EXPECT_DOUBLE_EQ(v[0], 5.0);
}

TEST(CompilerTest, PaperListing2FallsBackToTaskLoop) {
  // foo(p[i], q[i%3]) over [0,5): write functor i%3 collides. The extended
  // static tier now refutes it at compile time (with a concrete witness
  // pair), so the optimizer emits the original task loop directly — no
  // run-time guard is ever evaluated.
  Fixture fx(12, 3);  // q: 3 blocks
  auto& forest = fx.rt.forest();
  const IndexSpaceId p_is = forest.create_index_space(Domain::line(25));
  const RegionId p_region = forest.create_region(p_is, fx.fs);
  const PartitionId p_blocks = partition_equal(forest, p_is, Rect::line(5));

  ForLoop loop;
  loop.domain = Domain::line(5);
  TaskCallStmt call;
  call.task = fx.touch;
  call.args = {{p_region, p_blocks, {make_coord(0)}, {fx.fv}, Privilege::kRead,
                ReductionOp::kNone},
               {fx.region, fx.blocks, {make_mod(make_coord(0), make_const(3))},
                {fx.fv}, Privilege::kWrite, ReductionOp::kNone}};
  loop.body = {call};

  const CompiledLoop compiled = compile_loop(loop, fx.rt.forest());
  EXPECT_EQ(compiled.strategy(), LoopStrategy::kTaskLoop);
  ASSERT_TRUE(compiled.diagnostics().witness.has_value());
  EXPECT_NE(compiled.explain().find("witness:"), std::string::npos);

  const LoopRunResult run = compiled.execute(fx.rt);
  EXPECT_FALSE(run.dynamic_check_ran);
  EXPECT_FALSE(run.ran_as_index_launch);
  fx.rt.wait_all();
  EXPECT_EQ(fx.rt.stats().single_launches, 5u);  // the original task loop
}

TEST(CompilerTest, ConstantWriteFunctorIsStaticallyUnsafe) {
  Fixture fx(32, 8);
  ForLoop loop;
  loop.domain = Domain::line(8);
  loop.body = {write_call(fx, {make_const(2)})};

  const CompiledLoop compiled = compile_loop(loop, fx.rt.forest());
  EXPECT_EQ(compiled.strategy(), LoopStrategy::kTaskLoop);
  EXPECT_TRUE(compiled.diagnostics().eligible);
  EXPECT_NE(compiled.diagnostics().reason.find("unsafe"), std::string::npos);

  // Still executes with sequential semantics: block 2 stamped by last i.
  compiled.execute(fx.rt);
  const auto v = fx.values();
  EXPECT_DOUBLE_EQ(v[8], 7.0);  // block 2 covers [8, 12)
}

TEST(CompilerTest, AffineNonDegenerateIsStatic) {
  Fixture fx(64, 16);
  ForLoop loop;
  loop.domain = Domain::line(8);
  // 2i + 1 hits odd blocks only — injective, statically provable.
  loop.body = {write_call(
      fx, {make_add(make_mul(make_const(2), make_coord(0)), make_const(1))})};
  const CompiledLoop compiled = compile_loop(loop, fx.rt.forest());
  EXPECT_EQ(compiled.strategy(), LoopStrategy::kIndexLaunch);
}

TEST(CompilerTest, CarriedAssignmentMakesLoopIneligible) {
  Fixture fx(32, 8);
  ForLoop loop;
  loop.domain = Domain::line(8);
  loop.body = {CarriedAssignStmt{"x", make_coord(0)}, write_call(fx, {make_coord(0)})};
  const CompiledLoop compiled = compile_loop(loop, fx.rt.forest());
  EXPECT_EQ(compiled.strategy(), LoopStrategy::kTaskLoop);
  EXPECT_FALSE(compiled.diagnostics().eligible);
  EXPECT_NE(compiled.diagnostics().reason.find("loop-carried"), std::string::npos);
}

TEST(CompilerTest, OpaqueStatementMakesLoopIneligible) {
  Fixture fx(32, 8);
  ForLoop loop;
  loop.domain = Domain::line(8);
  loop.body = {OpaqueStmt{"calls into external library"},
               write_call(fx, {make_coord(0)})};
  EXPECT_EQ(compile_loop(loop, fx.rt.forest()).strategy(), LoopStrategy::kTaskLoop);
}

TEST(CompilerTest, TwoCallsMakeLoopIneligible) {
  Fixture fx(32, 8);
  ForLoop loop;
  loop.domain = Domain::line(8);
  loop.body = {write_call(fx, {make_coord(0)}), write_call(fx, {make_coord(0)})};
  const CompiledLoop compiled = compile_loop(loop, fx.rt.forest());
  EXPECT_FALSE(compiled.diagnostics().eligible);
}

TEST(CompilerTest, VarDeclsAndAccumulatorsArePermitted) {
  Fixture fx(32, 8);
  ForLoop loop;
  loop.domain = Domain::line(8);
  loop.body = {VarDeclStmt{"tmp", make_mul(make_coord(0), make_const(2))},
               ScalarAccumStmt{"total", ReductionOp::kSum, make_coord(0)},
               ScalarAccumStmt{"biggest", ReductionOp::kMax, make_coord(0)},
               write_call(fx, {make_coord(0)})};
  const CompiledLoop compiled = compile_loop(loop, fx.rt.forest());
  EXPECT_EQ(compiled.strategy(), LoopStrategy::kIndexLaunch);

  const LoopRunResult run = compiled.execute(fx.rt);
  EXPECT_EQ(run.scalars.at("total"), 28);   // 0+..+7
  EXPECT_EQ(run.scalars.at("biggest"), 7);
}

TEST(CompilerTest, CompiledMatchesInterpreterOnGuardedFallback) {
  // Property: whatever the strategy, final region contents equal the
  // interpreted (sequential) loop.
  for (int64_t k : {1, 2, 3, 5, 8}) {
    Fixture compiled_fx(24, 8);
    Fixture interp_fx(24, 8);
    auto make = [&](Fixture& fx) {
      ForLoop loop;
      loop.domain = Domain::line(8);
      loop.body = {write_call(
          fx, {make_mod(make_mul(make_coord(0), make_const(k)), make_const(8))})};
      return loop;
    };
    compile_loop(make(compiled_fx), compiled_fx.rt.forest()).execute(compiled_fx.rt);
    interpret_loop(make(interp_fx), interp_fx.rt);
    EXPECT_EQ(compiled_fx.values(), interp_fx.values()) << "k=" << k;
  }
}

TEST(CompilerTest, TwoDimensionalLoopCompiles) {
  // for (i, j) in [0,2)x[0,3) do stamp(q[(i, j)]) end over a 2-D partition.
  Runtime rt;
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain(Rect::box2(4, 6)));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::box2(2, 3));
  const TaskFnId stamp = rt.register_task("stamp", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, static_cast<double>(ctx.point[0] * 10 + ctx.point[1]));
    });
  });

  ForLoop loop;
  loop.domain = Domain(Rect::box2(2, 3));
  TaskCallStmt call;
  call.task = stamp;
  call.args = {{region, blocks, {make_coord(0), make_coord(1)}, {fv},
                Privilege::kWrite, ReductionOp::kNone}};
  loop.body = {call};

  const CompiledLoop compiled = compile_loop(loop, forest);
  EXPECT_EQ(compiled.strategy(), LoopStrategy::kIndexLaunch);
  compiled.execute(rt);
  rt.wait_all();
  auto acc = rt.read_region<double>(region, fv);
  // Block (1,2) covers cells (2..3, 4..5).
  EXPECT_DOUBLE_EQ(acc.read(Point::p2(3, 5)), 12.0);
}

TEST(CompilerTest, TransposedTwoDimLoopIsStaticallySafe) {
  // stamp(q[(j, i)]): a coordinate permutation — full-rank affine map.
  Runtime rt;
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain(Rect::box2(4, 4)));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::box2(2, 2));
  const TaskFnId noop = rt.register_task("noop", [](TaskContext&) {});

  ForLoop loop;
  loop.domain = Domain(Rect::box2(2, 2));
  TaskCallStmt call;
  call.task = noop;
  call.args = {{region, blocks, {make_coord(1), make_coord(0)}, {fv},
                Privilege::kWrite, ReductionOp::kNone}};
  loop.body = {call};
  EXPECT_EQ(compile_loop(loop, forest).strategy(), LoopStrategy::kIndexLaunch);
}

TEST(CompilerTest, WavefrontLoopIsGuardedAndPasses) {
  // The DOM idiom at the compiler level: loop over a sparse 3-D wavefront,
  // write a 2-D plane partition through (x, y).
  Runtime rt;
  auto& forest = rt.forest();
  const IndexSpaceId plane = forest.create_index_space(Domain(Rect::box2(3, 3)));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(plane, fs);
  const PartitionId cells = partition_equal(forest, plane, Rect::box2(3, 3));
  const TaskFnId noop = rt.register_task("noop", [](TaskContext&) {});

  std::vector<Point> wave;
  for (int x = 0; x < 3; ++x)
    for (int y = 0; y < 3; ++y)
      for (int z = 0; z < 3; ++z)
        if (x + y + z == 3) wave.push_back(Point::p3(x, y, z));

  ForLoop loop;
  loop.domain = Domain::from_points(wave);
  TaskCallStmt call;
  call.task = noop;
  call.args = {{region, cells, {make_coord(0), make_coord(1)}, {fv},
                Privilege::kWrite, ReductionOp::kNone}};
  loop.body = {call};

  const CompiledLoop compiled = compile_loop(loop, forest);
  EXPECT_EQ(compiled.strategy(), LoopStrategy::kGuardedIndexLaunch);
  const LoopRunResult run = compiled.execute(rt);
  EXPECT_TRUE(run.dynamic_check_ran);
  EXPECT_TRUE(run.dynamic_check_passed);
  EXPECT_TRUE(run.ran_as_index_launch);
  rt.wait_all();
}

TEST(CompilerTest, CrossLoopVerdictsSurfaceInDiagnostics) {
  // Three compiled loops writing the same field: even colors (2i), odd
  // colors (2i+1), then even colors again. The whole-program pass proves
  // the even/odd pairs disjoint by residue-class image separation (with a
  // checker-validated certificate) and refutes the even/even pair with a
  // validated racing witness — all surfaced in CompileDiagnostics.
  Fixture fx(32, 8);
  auto make = [&](ExprPtr e) {
    ForLoop l;
    l.domain = Domain::line(4);
    l.body = {write_call(fx, {std::move(e)})};
    return l;
  };
  std::vector<CompiledLoop> prog;
  prog.push_back(
      compile_loop(make(make_mul(make_const(2), make_coord(0))), fx.rt.forest()));
  prog.push_back(compile_loop(
      make(make_add(make_mul(make_const(2), make_coord(0)), make_const(1))),
      fx.rt.forest()));
  prog.push_back(
      compile_loop(make(make_mul(make_const(2), make_coord(0))), fx.rt.forest()));
  for (const CompiledLoop& c : prog)
    ASSERT_EQ(c.strategy(), LoopStrategy::kIndexLaunch);

  cross_analyze_program(prog, fx.rt.forest());

  EXPECT_TRUE(prog[0].diagnostics().inter_launch.empty());
  ASSERT_EQ(prog[1].diagnostics().inter_launch.size(), 1u);
  const InterLaunchVerdict& odd_even = prog[1].diagnostics().inter_launch[0];
  EXPECT_EQ(odd_even.earlier_loop, 0u);
  EXPECT_EQ(odd_even.verdict, PairVerdict::kDisjoint);
  EXPECT_TRUE(odd_even.certified);

  ASSERT_EQ(prog[2].diagnostics().inter_launch.size(), 2u);
  const InterLaunchVerdict& even_even = prog[2].diagnostics().inter_launch[0];
  EXPECT_EQ(even_even.earlier_loop, 0u);
  EXPECT_EQ(even_even.verdict, PairVerdict::kInterferes);
  ASSERT_TRUE(even_even.witness.has_value());
  const InterLaunchVerdict& even_odd = prog[2].diagnostics().inter_launch[1];
  EXPECT_EQ(even_odd.earlier_loop, 1u);
  EXPECT_EQ(even_odd.verdict, PairVerdict::kDisjoint);
  EXPECT_TRUE(even_odd.certified);

  const std::string report = prog[2].explain();
  EXPECT_NE(report.find("inter-launch:"), std::string::npos);
  EXPECT_NE(report.find("interferes"), std::string::npos);
  EXPECT_NE(report.find("(certified)"), std::string::npos);
  EXPECT_NE(report.find("witness"), std::string::npos);
}

// ---------- loop-nest flattening ----------

TEST(TransformTest, PerfectNestFlattensToMultiDimLaunch) {
  // for i = 0, 2 do for j = 0, 3 do stamp(q[(i, j)]) end end
  Runtime rt;
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain(Rect::box2(4, 6)));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::box2(2, 3));
  const TaskFnId stamp = rt.register_task("stamp", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, static_cast<double>(ctx.point[0] * 10 + ctx.point[1]));
    });
  });

  TaskCallStmt call;
  call.task = stamp;
  call.args = {{region, blocks, {make_coord(0), make_coord(1)}, {fv},
                Privilege::kWrite, ReductionOp::kNone}};
  NestedLoopStmt inner;
  inner.domain = Domain::line(3);
  inner.body->push_back(call);
  ForLoop outer;
  outer.domain = Domain::line(2);
  outer.body = {inner};

  // Unflattened: ineligible (nested loop).
  EXPECT_EQ(compile_loop(outer, forest).strategy(), LoopStrategy::kTaskLoop);
  EXPECT_EQ(nest_depth(outer), 2);

  const ForLoop flat = flatten_loops(outer);
  EXPECT_EQ(nest_depth(flat), 1);
  EXPECT_EQ(flat.domain.dim(), 2);
  EXPECT_EQ(flat.domain.volume(), 6);

  const CompiledLoop compiled = compile_loop(flat, forest);
  EXPECT_EQ(compiled.strategy(), LoopStrategy::kIndexLaunch);
  compiled.execute(rt);
  rt.wait_all();
  auto acc = rt.read_region<double>(region, fv);
  EXPECT_DOUBLE_EQ(acc.read(Point::p2(3, 5)), 12.0);  // block (1,2)
}

TEST(TransformTest, ThreeLevelNestFlattens) {
  NestedLoopStmt level3;
  level3.domain = Domain::line(2);
  level3.body->push_back(OpaqueStmt{"work"});
  NestedLoopStmt level2;
  level2.domain = Domain::line(3);
  level2.body->push_back(level3);
  ForLoop outer;
  outer.domain = Domain::line(4);
  outer.body = {level2};

  EXPECT_EQ(nest_depth(outer), 3);
  const ForLoop flat = flatten_loops(outer);
  EXPECT_EQ(flat.domain.dim(), 3);
  EXPECT_EQ(flat.domain.volume(), 24);
}

TEST(TransformTest, ImperfectNestStopsFlattening) {
  // A task call *between* the loops blocks the collapse.
  TaskCallStmt call;
  call.task = 0;
  NestedLoopStmt inner;
  inner.domain = Domain::line(3);
  ForLoop outer;
  outer.domain = Domain::line(2);
  outer.body = {call, inner};
  const ForLoop flat = flatten_loops(outer);
  EXPECT_EQ(flat.domain.dim(), 1);  // unchanged
}

TEST(TransformTest, SimpleStatementsAreHoisted) {
  NestedLoopStmt inner;
  inner.domain = Domain::line(3);
  inner.body->emplace_back(OpaqueStmt{"inner work"});
  ForLoop outer;
  outer.domain = Domain::line(2);
  outer.body = {VarDeclStmt{"tmp", make_coord(0)}, inner};
  const ForLoop flat = flatten_loops(outer);
  EXPECT_EQ(flat.domain.dim(), 2);
  EXPECT_EQ(flat.body.size(), 2u);  // hoisted decl + inner body
  EXPECT_TRUE(std::holds_alternative<VarDeclStmt>(flat.body[0]));
}

TEST(TransformTest, DimensionalityCapRespected) {
  // 5 nested 1-D loops exceed kMaxDim = 4: flattening stops at 4.
  ForLoop loop;
  loop.domain = Domain::line(2);
  NestedLoopStmt* tail = nullptr;
  for (int level = 0; level < 4; ++level) {
    NestedLoopStmt nested;
    nested.domain = Domain::line(2);
    if (tail == nullptr) {
      loop.body = {nested};
      tail = &std::get<NestedLoopStmt>(loop.body[0]);
    } else {
      tail->body->push_back(nested);
      tail = &std::get<NestedLoopStmt>(tail->body->back());
    }
  }
  const ForLoop flat = flatten_loops(loop);
  EXPECT_LE(flat.domain.dim(), kMaxDim);
  EXPECT_EQ(flat.domain.dim(), 4);
}

TEST(CompilerTest, ExplainMentionsStrategy) {
  Fixture fx(32, 8);
  ForLoop loop;
  loop.domain = Domain::line(8);
  loop.body = {write_call(fx, {make_coord(0)})};
  const CompiledLoop compiled = compile_loop(loop, fx.rt.forest());
  const std::string text = compiled.explain();
  EXPECT_NE(text.find("index-launch"), std::string::npos);
  EXPECT_NE(text.find("write"), std::string::npos);
}

}  // namespace
}  // namespace idxl::regent
