// Compiler demo: the §4 hybrid optimization pass on mini-Regent loops.
// Five candidate loops — the compiler proves one safe statically, guards
// two with the emitted Listing-3 dynamic check (one passes at runtime, the
// paper's i%3 example fails and takes the original-loop branch), rejects
// one statically, and declines one as ineligible.
#include <cstdio>

#include "compiler/compile.hpp"
#include "region/partition_ops.hpp"

using namespace idxl;
using namespace idxl::regent;

int main() {
  Runtime rt;
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(30));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId value = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId q = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(6));

  const TaskFnId stamp = rt.register_task("stamp", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(ctx.point[0])); });
  });

  auto loop_with = [&](std::vector<ExprPtr> index, int64_t extent) {
    ForLoop loop;
    loop.domain = Domain::line(extent);
    TaskCallStmt call;
    call.task = stamp;
    call.args = {{q, blocks, std::move(index), {value}, Privilege::kWrite,
                  ReductionOp::kNone}};
    loop.body = {call};
    return loop;
  };

  struct Case {
    const char* source;
    ForLoop loop;
  };
  Case cases[] = {
      {"for i = 0, 6 do stamp(q[i]) end", loop_with({make_coord(0)}, 6)},
      {"for i = 0, 6 do stamp(q[(i + 2) % 6]) end",
       loop_with({make_mod(make_add(make_coord(0), make_const(2)), make_const(6))}, 6)},
      {"for i = 0, 5 do stamp(q[i % 3]) end  -- the paper's Listing 2",
       loop_with({make_mod(make_coord(0), make_const(3))}, 5)},
      {"for i = 0, 6 do stamp(q[2]) end",
       loop_with({make_const(2)}, 6)},
  };

  for (const Case& c : cases) {
    const CompiledLoop compiled = compile_loop(c.loop, forest);
    std::printf("----\nsource:   %s\n%s\n", c.source, compiled.explain().c_str());
    const LoopRunResult run = compiled.execute(rt);
    std::printf("executed: index launch=%s", run.ran_as_index_launch ? "yes" : "no");
    if (run.dynamic_check_ran)
      std::printf(", dynamic check %s after %llu evals",
                  run.dynamic_check_passed ? "PASSED" : "FAILED",
                  static_cast<unsigned long long>(run.dynamic_check_points));
    std::printf("\n");
  }

  // An ineligible loop: a loop-carried scalar assignment.
  ForLoop carried = loop_with({make_coord(0)}, 6);
  carried.body = {CarriedAssignStmt{"x", make_coord(0)}, carried.body.front()};
  const CompiledLoop rejected = compile_loop(carried, forest);
  std::printf("----\nsource:   for i = 0, 6 do x = i; stamp(q[i]) end\n%s\n",
              rejected.explain().c_str());

  rt.wait_all();
  return 0;
}
