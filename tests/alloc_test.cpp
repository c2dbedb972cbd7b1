// Heap allocations per point task on the steady-state index-launch path.
// This executable replaces the global operator new/delete with versions
// that count every call, so it must stay a test binary of its own: no other
// test links these replacements.
//
// The workload mirrors the launch-storm benchmark: 2 workers, |D| = 1024
// points over an equal partition with read-write identity access, windows
// of 4 launches closed by wait_all. Counting starts after 2 warm-up windows
// (verdict cache, pool, event-log lanes and tracker tables are warm by then)
// and covers 16 windows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Kept out of line, news and deletes alike: GCC pairs what it sees inlined
// at a call site, and std::malloc inlined on one side with operator delete,
// or operator new with std::free, reads to it as a mismatched pair.
[[gnu::noinline]] void* operator new(std::size_t size) { return counted_alloc(size); }
[[gnu::noinline]] void* operator new[](std::size_t size) { return counted_alloc(size); }
[[gnu::noinline]] void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
[[gnu::noinline]] void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace idxl {
namespace {

constexpr int64_t kPoints = 1024;
constexpr int64_t kBlockElems = 4;
constexpr int kLaunchesPerWindow = 4;
constexpr int kWarmupWindows = 2;
constexpr int kCountedWindows = 16;

/// Allocations per point task over the counted windows of a launch over
/// `domain`; also checks that every point of every launch ran exactly once.
double allocations_per_point_task(const Domain& domain) {
  RuntimeConfig cfg;
  cfg.workers = 2;
  Runtime rt(cfg);
  RegionForest& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(kPoints * kBlockElems));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId f = forest.allocate_field(fs, sizeof(double), "count");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(kPoints));
  rt.fill(region, f, 0.0);
  rt.wait_all();

  const TaskFnId inc = rt.register_task("inc", [f](TaskContext& ctx) {
    auto a = ctx.region(0).accessor<double>(f);
    ctx.region(0).domain().for_each([&](const Point& p) { a.write(p, a.read(p) + 1.0); });
  });
  const IndexLauncher launcher = IndexLauncher::over(domain).with_task(inc).region(
      region, blocks, ProjectionFunctor::identity(1), {f}, Privilege::kReadWrite);
  const auto window = [&] {
    for (int i = 0; i < kLaunchesPerWindow; ++i) rt.execute_index(launcher);
    rt.wait_all();
  };

  for (int w = 0; w < kWarmupWindows; ++w) window();
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int w = 0; w < kCountedWindows; ++w) window();
  const uint64_t allocations = g_allocations.load(std::memory_order_relaxed) - before;

  const double launches = (kWarmupWindows + kCountedWindows) * kLaunchesPerWindow;
  auto acc = rt.read_region<double>(region, f);
  for (int64_t i = 0; i < kPoints * kBlockElems; ++i) {
    const double expected = domain.contains(Point::p1(i / kBlockElems)) ? launches : 0.0;
    EXPECT_EQ(acc.read(Point::p1(i)), expected) << "element " << i;
  }
  EXPECT_TRUE(rt.fault_report().ok());
  const auto tasks = static_cast<double>(kCountedWindows * kLaunchesPerWindow * domain.volume());
  return static_cast<double>(allocations) / tasks;
}

TEST(AllocTest, DenseLaunchAllocatesAtMostOncePerPointTask) {
  const double per_task = allocations_per_point_task(Domain::line(kPoints));
  RecordProperty("allocations_per_point_task", std::to_string(per_task));
  EXPECT_LE(per_task, 1.0);
}

TEST(AllocTest, SparseLaunchAllocatesAtMostOncePerPointTask) {
  // Every point but one: the launch domain is a point list, which a task
  // that copied it would pay for at every point.
  std::vector<Point> points;
  for (int64_t i = 0; i < kPoints; ++i)
    if (i != kPoints / 2) points.push_back(Point::p1(i));
  const Domain sparse = Domain::from_points(std::move(points));
  ASSERT_FALSE(sparse.dense());
  const double per_task = allocations_per_point_task(sparse);
  RecordProperty("allocations_per_point_task", std::to_string(per_task));
  EXPECT_LE(per_task, 1.0);
}

}  // namespace
}  // namespace idxl
