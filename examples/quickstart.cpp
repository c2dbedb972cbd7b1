// Quickstart: the paper's Listing 1 in this library.
//
//   for i = 0, N do   -- parallel
//     foo(p[i])       -- trivial (identity) projection functor
//   end
//
//   for i = 0, N do   -- parallel
//     bar(q[f(i)])    -- non-trivial projection functor
//   end
//
// Builds a region, partitions it, launches both loops as index launches,
// and prints what the hybrid safety analysis decided for each.
#include <cstdio>

#include "dist/backend.hpp"
#include "region/partition_ops.hpp"

using namespace idxl;

int main() {
  constexpr int64_t kElements = 64;
  constexpr int64_t kPieces = 8;

  // Backend picked by $IDXL_BACKEND (local | sharded | dist) — the same
  // program runs on a thread pool, on in-process ranks, or across real OS
  // processes without modification.
  const std::unique_ptr<RuntimeApi> rt_ptr = dist::make_runtime();
  RuntimeApi& rt = *rt_ptr;
  auto& forest = rt.forest();

  // A collection of 64 doubles, partitioned into 8 disjoint pieces.
  const IndexSpaceId is = forest.create_index_space(Domain::line(kElements));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId value = forest.allocate_field(fs, sizeof(double), "value");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId pieces = partition_equal(forest, is, Rect::line(kPieces));

  // foo: fill a piece with the launch index.
  const TaskFnId foo = rt.register_task("foo", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, static_cast<double>(ctx.point[0])); });
  });
  // bar: scale a piece by 10.
  const TaskFnId bar = rt.register_task("bar", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.write(p, acc.read(p)); });
    // read-write: multiply in place
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, acc.read(p) * 10.0);
    });
  });

  // Loop 1: foo(p[i]) — the identity projection functor. Statically safe.
  const LaunchResult r1 = rt.execute_index(
      IndexLauncher::over(Domain::line(kPieces))
          .with_task(foo)
          .region(region, pieces, ProjectionFunctor::identity(1), {value},
                  Privilege::kWrite));
  std::printf("loop 1 (foo(p[i])):    outcome=%s, ran as index launch=%s\n",
              r1.safety.outcome == SafetyOutcome::kSafeStatic ? "safe-static"
                                                              : "other",
              r1.ran_as_index_launch ? "yes" : "no");

  // Loop 2: bar(q[f(i)]) with f(i) = (i + 3) mod 8 — injective here, but
  // only the dynamic check can prove it.
  const LaunchResult r2 = rt.execute_index(
      IndexLauncher::over(Domain::line(kPieces))
          .with_task(bar)
          .region(region, pieces, ProjectionFunctor::modular1d(3, kPieces),
                  {value}, Privilege::kReadWrite));
  std::printf("loop 2 (bar(q[f(i)])): outcome=%s, dynamic points checked=%llu\n",
              r2.safety.outcome == SafetyOutcome::kSafeDynamic ? "safe-dynamic"
                                                               : "other",
              static_cast<unsigned long long>(r2.safety.dynamic_points));

  rt.wait_all();
  auto acc = rt.read_region<double>(region, value);
  std::printf("region contents (one element per piece):");
  for (int64_t piece = 0; piece < kPieces; ++piece)
    std::printf(" %.0f", acc.read(Point::p1(piece * (kElements / kPieces))));
  std::printf("\n");

  const RuntimeStats stats = rt.stats();
  std::printf(
      "runtime calls=%llu (2 launches, %lld tasks) | static-safe=%llu "
      "dynamic-safe=%llu\n",
      static_cast<unsigned long long>(stats.runtime_calls),
      static_cast<long long>(2 * kPieces),
      static_cast<unsigned long long>(stats.launches_safe_static),
      static_cast<unsigned long long>(stats.launches_safe_dynamic));
  return 0;
}
