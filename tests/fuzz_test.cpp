#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "analysis/certificate.hpp"
#include "analysis/interference.hpp"
#include "analysis/witness.hpp"
#include "dist/dist_runtime.hpp"
#include "region/partition_ops.hpp"
#include "runtime/runtime.hpp"
#include "support/rng.hpp"

namespace idxl {
namespace {

// Differential fuzzing of the execution strategies. A random sequence of
// index launches — random functors (many non-injective), privileges and
// domains — is run under several configurations. Because unsafe launches
// fall back to the sequential task loop, *every* generated program is
// valid, and all configurations must produce bit-identical region contents:
//
//   * index launches enabled (hybrid checks decide per launch)
//   * index launches disabled (the paper's No-IDX baseline)
//   * extended static analysis (more launches verified without checks)
//
// This exercises the safety analysis, the fallback branch, dependence
// tracking across random read/write/reduce patterns, and the executor.

constexpr int64_t kElements = 60;
constexpr int64_t kPieces = 6;

struct Program {
  struct Launch {
    int64_t domain_size;     // 1..6
    int functor_kind;        // selects from the pool below
    int64_t k;               // functor parameter
    int privilege_kind;      // 0 write, 1 read-write, 2 reduce
    bool sparse_domain;
  };
  std::vector<Launch> launches;
};

Program random_program(uint64_t seed) {
  Rng rng(seed);
  Program prog;
  const int n = static_cast<int>(rng.next_in(4, 14));
  for (int i = 0; i < n; ++i) {
    Program::Launch l;
    l.domain_size = rng.next_in(2, kPieces);
    l.functor_kind = static_cast<int>(rng.next_below(5));
    l.k = rng.next_in(0, 5);
    l.privilege_kind = static_cast<int>(rng.next_below(3));
    l.sparse_domain = rng.next_below(4) == 0;
    prog.launches.push_back(l);
  }
  return prog;
}

ProjectionFunctor make_functor(const Program::Launch& l) {
  switch (l.functor_kind) {
    case 0: return ProjectionFunctor::identity(1);
    case 1: return ProjectionFunctor::modular1d(l.k, kPieces);  // (i+k) mod 6
    case 2:  // (i*i + k) mod 6 — quadratic, often non-injective
      return ProjectionFunctor::symbolic(
          {make_mod(make_add(make_mul(make_coord(0), make_coord(0)), make_const(l.k)),
                    make_const(kPieces))});
    case 3:  // (2i + k) mod 6
      return ProjectionFunctor::symbolic(
          {make_mod(make_add(make_mul(make_const(2), make_coord(0)), make_const(l.k)),
                    make_const(kPieces))});
    default:  // i / 2 — non-injective gather
      return ProjectionFunctor::symbolic({make_div(make_coord(0), make_const(2))});
  }
}

std::vector<double> run_program(const Program& prog, const RuntimeConfig& cfg) {
  Runtime rt(cfg);
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(kElements));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(kPieces));

  {
    Accessor<double> acc(forest, region, fv, Privilege::kWrite);
    for (int64_t i = 0; i < kElements; ++i)
      acc.write(Point::p1(i), static_cast<double>(i % 7));
  }

  // Task bodies for the three privilege kinds. Each mixes the launch point
  // into the data so ordering mistakes change results.
  const TaskFnId t_write = rt.register_task("w", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, static_cast<double>(ctx.point[0] + p[0] % 3));
    });
  });
  const TaskFnId t_rw = rt.register_task("rw", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, acc.read(p) * 0.5 + static_cast<double>(ctx.point[0]));
    });
  });
  const TaskFnId t_reduce = rt.register_task("red", [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.reduce(p, static_cast<double>(1 + ctx.point[0])); });
  });

  for (const Program::Launch& l : prog.launches) {
    IndexLauncher launcher;
    launcher.domain = Domain::line(l.domain_size);
    if (l.sparse_domain) {
      std::vector<Point> pts;
      for (int64_t i = 0; i < l.domain_size; i += 2) pts.push_back(Point::p1(i));
      if (pts.empty()) pts.push_back(Point::p1(0));
      launcher.domain = Domain::from_points(std::move(pts));
    }
    ProjectedArg arg;
    arg.parent = region;
    arg.partition = blocks;
    arg.functor = make_functor(l);
    arg.fields = {fv};
    switch (l.privilege_kind) {
      case 0:
        launcher.task = t_write;
        arg.privilege = Privilege::kWrite;
        break;
      case 1:
        launcher.task = t_rw;
        arg.privilege = Privilege::kReadWrite;
        break;
      default:
        launcher.task = t_reduce;
        arg.privilege = Privilege::kReduce;
        arg.redop = ReductionOp::kSum;
        break;
    }
    launcher.args = {arg};
    rt.execute_index(launcher);
  }
  rt.wait_all();

  auto acc = rt.read_region<double>(region, fv);
  std::vector<double> out;
  for (int64_t i = 0; i < kElements; ++i) out.push_back(acc.read(Point::p1(i)));
  return out;
}

class DifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialFuzz, AllStrategiesAgree) {
  for (uint64_t trial = 0; trial < 8; ++trial) {
    const Program prog = random_program(GetParam() * 1000 + trial);

    RuntimeConfig idx;
    RuntimeConfig noidx;
    noidx.enable_index_launches = false;
    RuntimeConfig extended;
    extended.extended_static_analysis = true;
    RuntimeConfig few_workers;
    few_workers.workers = 1;

    const auto baseline = run_program(prog, idx);
    EXPECT_EQ(run_program(prog, noidx), baseline) << "No-IDX diverged";
    EXPECT_EQ(run_program(prog, extended), baseline) << "extended-static diverged";
    EXPECT_EQ(run_program(prog, few_workers), baseline) << "1-worker diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz, ::testing::Range<uint64_t>(1, 9));

// Two-argument variant: launches carry a read and a write argument on the
// same partition, driving the §3 cross-check rules (static image tests,
// field-disjointness, the multi-argument dynamic bitmask) plus fallback.
std::vector<double> run_two_arg_program(uint64_t seed, const RuntimeConfig& cfg) {
  Rng rng(seed);
  Runtime rt(cfg);
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(kElements));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fa = forest.allocate_field(fs, sizeof(double), "a");
  const FieldId fb = forest.allocate_field(fs, sizeof(double), "b");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(kPieces));

  {
    Accessor<double> a(forest, region, fa, Privilege::kWrite);
    Accessor<double> b(forest, region, fb, Privilege::kWrite);
    for (int64_t i = 0; i < kElements; ++i) {
      a.write(Point::p1(i), static_cast<double>(i));
      b.write(Point::p1(i), static_cast<double>(-i));
    }
  }

  const TaskFnId mix = rt.register_task("mix", [](TaskContext& ctx) {
    const FieldId in_field = ctx.arg<FieldId>();
    auto in = ctx.region(0).accessor<double>(in_field);
    auto out = ctx.region(1).accessor<double>(in_field ^ 1u);
    double sum = static_cast<double>(ctx.point[0]);
    ctx.region(0).domain().for_each([&](const Point& p) { sum += in.read(p) * 0.125; });
    ctx.region(1).domain().for_each(
        [&](const Point& p) { out.write(p, sum + static_cast<double>(p[0] % 5)); });
  });

  const int launches = static_cast<int>(rng.next_in(4, 10));
  for (int l = 0; l < launches; ++l) {
    IndexLauncher launcher;
    launcher.task = mix;
    launcher.domain = Domain::line(rng.next_in(2, kPieces));
    const FieldId in_field = rng.next_below(2) ? fa : fb;
    launcher.scalar_args = ArgBuffer::of(in_field);

    auto pick = [&rng]() -> ProjectionFunctor {
      switch (rng.next_below(4)) {
        case 0: return ProjectionFunctor::identity(1);
        case 1: return ProjectionFunctor::modular1d(rng.next_in(0, 5), kPieces);
        case 2: return ProjectionFunctor::affine1d(1, rng.next_in(0, 2));
        default:
          return ProjectionFunctor::symbolic(
              {make_mod(make_mul(make_const(2), make_coord(0)), make_const(kPieces))});
      }
    };
    launcher.args = {
        {region, blocks, pick(), {in_field}, Privilege::kRead, ReductionOp::kNone},
        {region, blocks, pick(), {in_field ^ 1u}, Privilege::kWrite, ReductionOp::kNone}};

    // Affine offsets can select colors beyond the partition; such launches
    // are invalid and must throw identically in every configuration. Probe
    // with the functor directly and skip those.
    bool in_bounds = true;
    launcher.domain.for_each([&](const Point& p) {
      for (const auto& arg : launcher.args)
        if (arg.functor(p)[0] >= kPieces) in_bounds = false;
    });
    if (!in_bounds) continue;
    rt.execute_index(launcher);
  }
  rt.wait_all();

  auto a = rt.read_region<double>(region, fa);
  auto b = rt.read_region<double>(region, fb);
  std::vector<double> out;
  for (int64_t i = 0; i < kElements; ++i) {
    out.push_back(a.read(Point::p1(i)));
    out.push_back(b.read(Point::p1(i)));
  }
  return out;
}

class TwoArgDifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TwoArgDifferentialFuzz, AllStrategiesAgree) {
  for (uint64_t trial = 0; trial < 8; ++trial) {
    const uint64_t seed = GetParam() * 7919 + trial;
    RuntimeConfig idx;
    RuntimeConfig noidx;
    noidx.enable_index_launches = false;
    RuntimeConfig extended;
    extended.extended_static_analysis = true;

    const auto baseline = run_two_arg_program(seed, idx);
    EXPECT_EQ(run_two_arg_program(seed, noidx), baseline) << "No-IDX diverged";
    EXPECT_EQ(run_two_arg_program(seed, extended), baseline)
        << "extended-static diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TwoArgDifferentialFuzz,
                         ::testing::Range<uint64_t>(1, 7));

// Cross-runtime fuzz: the same random program on the single in-process
// runtime and on control replication over in-process ranks — star-hub and
// delta data planes — must produce identical region contents. The functor
// pool is constrained to safe launches (injective writers; reductions may
// alias, so points of one launch on different ranks fold into one color).
struct SafeLaunch {
  int64_t domain_size;
  int functor_kind;  // 0 identity, 1 (i+k)%6 full period, 2 reduce-quadratic
  int64_t k;
  int privilege_kind;  // 0 write, 1 rw, 2 reduce
};

std::vector<SafeLaunch> random_safe_program(uint64_t seed) {
  Rng rng(seed);
  std::vector<SafeLaunch> prog;
  const int n = static_cast<int>(rng.next_in(4, 12));
  for (int i = 0; i < n; ++i) {
    SafeLaunch l;
    l.privilege_kind = static_cast<int>(rng.next_below(3));
    if (l.privilege_kind == 2) {
      l.functor_kind = 2;  // reductions tolerate non-injective functors
      l.domain_size = rng.next_in(2, kPieces);
    } else {
      l.functor_kind = static_cast<int>(rng.next_below(2));
      // The modular functor is injective only over a full period.
      l.domain_size = l.functor_kind == 1 ? kPieces : rng.next_in(2, kPieces);
    }
    l.k = rng.next_in(0, 5);
    prog.push_back(l);
  }
  return prog;
}

template <typename IssueFn>
void issue_safe_program(const std::vector<SafeLaunch>& prog, RegionId region,
                        PartitionId blocks, FieldId fv, TaskFnId t_write, TaskFnId t_rw,
                        TaskFnId t_reduce, IssueFn&& issue) {
  for (const SafeLaunch& l : prog) {
    IndexLauncher launcher;
    launcher.domain = Domain::line(l.domain_size);
    ProjectedArg arg;
    arg.parent = region;
    arg.partition = blocks;
    arg.fields = {fv};
    switch (l.functor_kind) {
      case 0: arg.functor = ProjectionFunctor::identity(1); break;
      case 1: arg.functor = ProjectionFunctor::modular1d(l.k, kPieces); break;
      default:
        arg.functor = ProjectionFunctor::symbolic({make_mod(
            make_add(make_mul(make_coord(0), make_coord(0)), make_const(l.k)),
            make_const(kPieces))});
        break;
    }
    switch (l.privilege_kind) {
      case 0:
        launcher.task = t_write;
        arg.privilege = Privilege::kWrite;
        break;
      case 1:
        launcher.task = t_rw;
        arg.privilege = Privilege::kReadWrite;
        break;
      default:
        launcher.task = t_reduce;
        arg.privilege = Privilege::kReduce;
        arg.redop = ReductionOp::kSum;
        break;
    }
    launcher.args = {arg};
    issue(launcher);
  }
}

TaskFn fuzz_write_body() {
  return [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, static_cast<double>(ctx.point[0] * 2 + p[0] % 3));
    });
  };
}
TaskFn fuzz_rw_body() {
  return [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each([&](const Point& p) {
      acc.write(p, acc.read(p) * 0.5 + static_cast<double>(ctx.point[0]));
    });
  };
}
TaskFn fuzz_reduce_body() {
  return [](TaskContext& ctx) {
    auto acc = ctx.region(0).accessor<double>(0);
    ctx.region(0).domain().for_each(
        [&](const Point& p) { acc.reduce(p, static_cast<double>(1 + ctx.point[0])); });
  };
}

std::vector<double> run_safe_single(const std::vector<SafeLaunch>& prog) {
  Runtime rt;
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(kElements));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(kPieces));
  {
    Accessor<double> acc(forest, region, fv, Privilege::kWrite);
    for (int64_t i = 0; i < kElements; ++i)
      acc.write(Point::p1(i), static_cast<double>(i % 7));
  }
  const TaskFnId w = rt.register_task("w", fuzz_write_body());
  const TaskFnId rw = rt.register_task("rw", fuzz_rw_body());
  const TaskFnId red = rt.register_task("red", fuzz_reduce_body());
  issue_safe_program(prog, region, blocks, fv, w, rw, red,
                     [&](const IndexLauncher& l) { rt.execute_index(l); });
  rt.wait_all();
  auto acc = rt.read_region<double>(region, fv);
  std::vector<double> out;
  for (int64_t i = 0; i < kElements; ++i) out.push_back(acc.read(Point::p1(i)));
  return out;
}

std::vector<double> run_safe_replicated(const std::vector<SafeLaunch>& prog,
                                        uint32_t ranks, bool delta) {
  dist::DistConfig dc;
  dc.ranks = ranks;
  dc.in_process = true;
  dc.delta_transfers = delta;
  dc.runtime.workers = 1;
  dist::DistributedRuntime rt(dc);
  auto& forest = rt.forest();
  const IndexSpaceId is = forest.create_index_space(Domain::line(kElements));
  const FieldSpaceId fs = forest.create_field_space();
  const FieldId fv = forest.allocate_field(fs, sizeof(double), "v");
  const RegionId region = forest.create_region(is, fs);
  const PartitionId blocks = partition_equal(forest, is, Rect::line(kPieces));
  {
    Accessor<double> acc(forest, region, fv, Privilege::kWrite);
    for (int64_t i = 0; i < kElements; ++i)
      acc.write(Point::p1(i), static_cast<double>(i % 7));
  }
  const TaskFnId w = rt.register_task("w", fuzz_write_body());
  const TaskFnId rw = rt.register_task("rw", fuzz_rw_body());
  const TaskFnId red = rt.register_task("red", fuzz_reduce_body());
  issue_safe_program(prog, region, blocks, fv, w, rw, red,
                     [&](const IndexLauncher& l) { rt.execute_index(l); });
  auto acc = rt.read_region<double>(region, fv);
  std::vector<double> out;
  for (int64_t i = 0; i < kElements; ++i) out.push_back(acc.read(Point::p1(i)));
  return out;
}

class CrossRuntimeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrossRuntimeFuzz, InProcessRanksMatchSingleRuntime) {
  for (uint64_t trial = 0; trial < 5; ++trial) {
    const auto prog = random_safe_program(GetParam() * 104729 + trial);
    const auto baseline = run_safe_single(prog);
    EXPECT_EQ(run_safe_replicated(prog, 1, true), baseline) << "1 rank";
    EXPECT_EQ(run_safe_replicated(prog, 3, false), baseline) << "3 ranks star-hub";
    EXPECT_EQ(run_safe_replicated(prog, 3, true), baseline) << "3 ranks delta";
    EXPECT_EQ(run_safe_replicated(prog, 4, true), baseline) << "4 ranks delta";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossRuntimeFuzz, ::testing::Range<uint64_t>(1, 6));

// ---------------------------------------------------------------------------
// Differential oracle for the extended static classifier: random symbolic
// functors over random dense domains, checked against exhaustive evaluation.
// The abstract interpreter must never contradict the ground truth —
//
//   kYes ⇒ the exhaustive dynamic check finds no collision, and
//   kNo  ⇒ the reported witness pair actually collides (re-evaluated here).
//
// kUnknown is always permitted; the property under test is soundness.
// ---------------------------------------------------------------------------

ExprPtr random_expr(Rng& rng, int dim, int depth) {
  if (depth == 0 || rng.next_below(3) == 0) {
    return rng.next_below(2) == 0
               ? make_const(rng.next_in(-6, 6))
               : make_coord(static_cast<int>(rng.next_below(static_cast<uint64_t>(dim))));
  }
  switch (rng.next_below(7)) {
    case 0: return make_add(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1));
    case 1: return make_sub(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1));
    case 2: return make_mul(random_expr(rng, dim, depth - 1), random_expr(rng, dim, depth - 1));
    case 3: return make_neg(random_expr(rng, dim, depth - 1));
    case 4: return make_div(random_expr(rng, dim, depth - 1), make_const(rng.next_in(1, 6)));
    default: return make_mod(random_expr(rng, dim, depth - 1), make_const(rng.next_in(1, 8)));
  }
}

class StaticOracleFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StaticOracleFuzz, ExtendedStaticNeverContradictsExhaustiveCheck) {
  Rng rng(GetParam() * 6151);
  int definite = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int dim = static_cast<int>(rng.next_in(1, 2));
    const int out_dim = static_cast<int>(rng.next_in(1, 2));
    std::vector<ExprPtr> exprs;
    for (int c = 0; c < out_dim; ++c) exprs.push_back(random_expr(rng, dim, 3));
    const ProjectionFunctor f = ProjectionFunctor::symbolic(std::move(exprs));

    Domain domain = dim == 1
        ? Domain::line(rng.next_in(1, 24))
        : Domain(Rect::box2(rng.next_in(1, 6), rng.next_in(1, 6)));
    if (rng.next_below(4) == 0) {
      // Shifted boxes exercise negative coordinates and mixed-sign ranges.
      const int64_t shift = rng.next_in(-8, 8);
      const Rect b = domain.bounds();
      Point lo = b.lo, hi = b.hi;
      for (int d = 0; d < b.dim(); ++d) {
        lo[d] += shift;
        hi[d] += shift;
      }
      domain = Domain(Rect(lo, hi));
    }

    // Exhaustive ground truth (no color-space clipping: the static verdict
    // speaks about functor collisions over the whole domain).
    std::unordered_set<std::string> seen;
    bool truth = true;
    domain.for_each([&](const Point& p) {
      if (truth && !seen.insert(f(p).to_string()).second) truth = false;
    });

    RaceWitness w;
    const Tri verdict = static_injectivity(f, domain, /*extended=*/true, &w);
    if (verdict == Tri::kYes) {
      EXPECT_TRUE(truth) << "unsound kYes for " << f.to_string() << " over "
                         << domain.to_string();
      ++definite;
    } else if (verdict == Tri::kNo) {
      EXPECT_FALSE(truth) << "kNo for injective " << f.to_string();
      EXPECT_TRUE(witness_valid(f, domain, w))
          << "bogus witness for " << f.to_string() << " over " << domain.to_string()
          << ": " << w.to_string();
      ++definite;
    }
  }
  // The classifier must actually decide a healthy share of random functors,
  // or the soundness assertions above would be vacuous.
  EXPECT_GT(definite, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticOracleFuzz, ::testing::Range<uint64_t>(1, 6));

// ---------------------------------------------------------------------------
// Differential oracle for the inter-launch pair analysis
// (analysis/interference.hpp): random launch-argument pairs, checked against
// exhaustive cross-evaluation of both functors. Soundness properties:
//
//   kDisjoint   ⇒ a certificate is present, the independent checker accepts
//                 it against the live sides, and the fact it claims is true
//                 (for image separation: no colliding point pair exists).
//   kInterferes ⇒ the witness re-validates, and the pair genuinely races
//                 (shared fields, shared collection, at least one writer,
//                 and the functors really collide at the witness points).
//
// kUnknown is always permitted; it only costs the dynamic walk.
// ---------------------------------------------------------------------------

LaunchArgSummary random_pair_summary(Rng& rng, int out_dim) {
  LaunchArgSummary s;
  std::vector<ExprPtr> exprs;
  for (int c = 0; c < out_dim; ++c) exprs.push_back(random_expr(rng, /*dim=*/1, 2));
  s.functor = ProjectionFunctor::symbolic(std::move(exprs));
  s.domain = Domain::line(rng.next_in(1, 12));
  s.color_space = Rect::line(8);
  s.partition_uid = 7;  // both sides share the partition unless flipped below
  s.partition_disjoint = rng.next_below(4) != 0;
  s.collection_uid = static_cast<uint32_t>(1 + rng.next_below(2));
  s.field_mask = static_cast<uint64_t>(rng.next_in(1, 3));
  switch (rng.next_below(4)) {
    case 0: s.priv = Privilege::kRead; break;
    case 1: s.priv = Privilege::kWrite; break;
    case 2: s.priv = Privilege::kReadWrite; break;
    default:
      s.priv = Privilege::kReduce;
      s.redop = ReductionOp::kSum;
      break;
  }
  return s;
}

bool images_collide(const LaunchArgSummary& a, const LaunchArgSummary& b) {
  bool collide = false;
  a.domain.for_each([&](const Point& pa) {
    if (collide) return;
    const Point ca = a.functor(pa);
    b.domain.for_each([&](const Point& pb) {
      if (!collide && ca == b.functor(pb)) collide = true;
    });
  });
  return collide;
}

class PairOracleFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PairOracleFuzz, PairVerdictsNeverContradictExhaustiveCheck) {
  Rng rng(GetParam() * 9973);
  int disjoint = 0, interferes = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int out_dim = rng.next_below(4) == 0 ? 2 : 1;
    const int out_dim_b = rng.next_below(8) == 0 ? 3 - out_dim : out_dim;
    LaunchArgSummary a = random_pair_summary(rng, out_dim);
    LaunchArgSummary b = random_pair_summary(rng, out_dim_b);

    const InterferenceResult r = analyze_interference(a, b);
    if (r.verdict == PairVerdict::kDisjoint) {
      ++disjoint;
      ASSERT_TRUE(r.certificate.has_value()) << "uncertified kDisjoint: " << r.reason;
      std::string why;
      EXPECT_TRUE(CertificateChecker::validate(*r.certificate, a.side(), b.side(), &why))
          << "checker rejected the analyzer's own certificate: " << why;
      switch (r.certificate->kind) {
        case CertKind::kFieldsDisjoint:
          EXPECT_EQ(a.field_mask & b.field_mask, uint64_t{0}) << r.reason;
          break;
        case CertKind::kDistinctCollections:
          EXPECT_NE(a.collection_uid, b.collection_uid) << r.reason;
          break;
        case CertKind::kReadOnly:
          EXPECT_FALSE(a.writes() || b.writes()) << r.reason;
          break;
        case CertKind::kImageSeparation:
          EXPECT_FALSE(images_collide(a, b))
              << "unsound image separation for " << a.functor.to_string() << " vs "
              << b.functor.to_string() << ": " << r.reason;
          break;
      }
    } else if (r.verdict == PairVerdict::kInterferes) {
      ++interferes;
      ASSERT_TRUE(r.witness.has_value()) << "unwitnessed kInterferes: " << r.reason;
      EXPECT_TRUE(pair_witness_valid(a.functor, a.domain, b.functor, b.domain,
                                     *r.witness))
          << "bogus pair witness: " << r.witness->to_string();
      EXPECT_NE(a.field_mask & b.field_mask, uint64_t{0});
      EXPECT_EQ(a.collection_uid, b.collection_uid);
      EXPECT_TRUE(a.writes() || b.writes());
      EXPECT_TRUE(images_collide(a, b));
    }
  }
  // The analyzer must decide a healthy share of random pairs, or the
  // soundness assertions above would be vacuous.
  EXPECT_GT(disjoint, 50);
  EXPECT_GT(interferes, 5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairOracleFuzz, ::testing::Range<uint64_t>(1, 6));

// ---------------------------------------------------------------------------
// Dependence-oracle fuzz: the edges the runtime records, checked against the
// definition of a conflict. Random single tasks, index launches and fills
// over equal, halo, image and nested partitions of two region trees that
// share one index space, with one partition created mid-program. The pool is
// paused while the program issues, so no body runs and nothing completes
// early: every edge is then a function of the program alone. Two checks,
// with group analysis on and off:
//
//   1. every edge joins a conflicting pair: same region tree, overlapping
//      domains, a shared field, and one of the two writes (a reduction
//      counts as a write);
//   2. every conflicting pair is ordered by the transitive closure of the
//      edges.
// ---------------------------------------------------------------------------

struct OracleOp {
  enum Kind { kIndex, kSingle, kFill } kind = kIndex;
  int part = -1;       // partition index (kIndex: launched over; else -1 = root)
  int read_part = -1;  // kIndex: a second, read-only argument's partition
  int region = 0;      // which root region: 0 or 1
  int read_region = 0;
  int64_t shift = 0;   // the read argument's functor offset along x
  Point color;         // kSingle / kFill: the subregion's color
  FieldId field = 0;
  Privilege priv = Privilege::kRead;
};

/// The partitions of the oracle forest, in creation order. Partition 3 is a
/// partition of block (1,1), partition 4 is created mid-program.
constexpr int kOracleParts = 5;
constexpr int kOracleLatePart = 4;

Rect oracle_colors(int part) {
  return part == 3 || part == 4 ? Rect::box2(2, 2) : Rect::box2(3, 3);
}

std::vector<OracleOp> random_oracle_program(uint64_t seed) {
  Rng rng(seed * 7919);
  std::vector<OracleOp> ops(static_cast<std::size_t>(rng.next_in(24, 36)));
  const std::size_t mid = ops.size() / 2;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    OracleOp& op = ops[i];
    const int parts = i >= mid ? kOracleParts : kOracleLatePart;
    const uint64_t kind = rng.next_below(6);
    op.kind = kind < 3 ? OracleOp::kIndex : kind < 5 ? OracleOp::kSingle : OracleOp::kFill;
    op.region = static_cast<int>(rng.next_below(2));
    op.field = static_cast<FieldId>(rng.next_below(2));
    switch (rng.next_below(4)) {
      case 0: op.priv = Privilege::kRead; break;
      case 1: op.priv = Privilege::kReadWrite; break;
      case 2: op.priv = Privilege::kWrite; break;
      default: op.priv = Privilege::kReduce; break;
    }
    if (op.kind == OracleOp::kIndex) {
      op.part = static_cast<int>(rng.next_below(static_cast<uint64_t>(parts)));
      if (rng.next_below(2) == 0) {
        do {
          op.read_part = static_cast<int>(rng.next_below(static_cast<uint64_t>(parts)));
        } while (op.read_part == 3);  // a root's partitions only
        op.read_region = static_cast<int>(rng.next_below(2));
        op.shift = rng.next_in(0, 2);
      }
    } else {
      op.part = static_cast<int>(rng.next_below(static_cast<uint64_t>(parts) + 1)) - 1;
      if (op.part >= 0) {
        const Rect colors = oracle_colors(op.part);
        op.color = Point::p2(rng.next_in(0, colors.hi[0]), rng.next_in(0, colors.hi[1]));
      }
      if (op.kind == OracleOp::kFill) op.priv = Privilege::kWrite;
    }
  }
  return ops;
}

/// One region use of one issued task, as the oracle models it.
struct OracleUse {
  uint32_t tree = 0;
  IndexSpaceId ispace;
  uint64_t fields = 0;
  bool writes = false;
};

struct OracleTask {
  std::string label_prefix;  // "oracle@" or "idxl_fill@"
  std::vector<OracleUse> uses;
};

/// One issued program: the runtime (whose forest holds the index spaces the
/// model names), every task in issue (= seq) order, and the task graph.
struct OracleRun {
  std::unique_ptr<Runtime> rt;
  std::vector<OracleTask> model;
  std::string dot;
};

/// Issue the program with group analysis on or off.
OracleRun run_oracle_program(const std::vector<OracleOp>& ops, bool group) {
  RuntimeConfig cfg;
  cfg.enable_group_analysis = group;
  cfg.enable_profiling = true;
  cfg.workers = 2;
  OracleRun run{std::make_unique<Runtime>(cfg), {}, {}};
  Runtime& rt = *run.rt;
  RegionForest& forest = rt.forest();
  std::vector<OracleTask>& model = run.model;
  const IndexSpaceId grid = forest.create_index_space(Domain(Rect::box2(12, 12)));
  const FieldSpaceId fs = forest.create_field_space();
  forest.allocate_field(fs, sizeof(double), "a");
  forest.allocate_field(fs, sizeof(double), "b");
  const RegionId roots[2] = {forest.create_region(grid, fs), forest.create_region(grid, fs)};
  std::vector<PartitionId> parts;
  parts.push_back(partition_equal(forest, grid, Rect::box2(3, 3)));
  parts.push_back(partition_halo(forest, grid, parts[0], 1));
  parts.push_back(partition_image(forest, grid, parts[0], [](const Point& p) {
    return Point::p2((p[0] * 5 + p[1]) % 12, (p[1] * 7 + 3) % 12);
  }));
  const IndexSpaceId block11 = forest.subspace(parts[0], Point::p2(1, 1));
  parts.push_back(partition_equal(forest, block11, Rect::box2(2, 2)));
  const auto part = [&](int i) { return parts[static_cast<std::size_t>(i)]; };
  // The parent region a partition is taken from, per root.
  const auto parent = [&](int i, int region) {
    return i == 3 ? forest.subregion(roots[region], parts[0], Point::p2(1, 1)) : roots[region];
  };
  const auto use_of = [&](RegionId r, FieldId f, Privilege priv) {
    const RegionInfo& info = forest.region(r);
    return OracleUse{info.tree_id, info.ispace, uint64_t{1} << f, privilege_writes(priv)};
  };
  const TaskFnId task = rt.register_task("oracle", [](TaskContext&) {});
  const auto redop = [](Privilege priv) {
    return priv == Privilege::kReduce ? ReductionOp::kSum : ReductionOp::kNone;
  };

  rt.pool().pause();
  const std::size_t mid = ops.size() / 2;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (i == mid) parts.push_back(partition_equal(forest, grid, Rect::box2(2, 2)));
    const OracleOp& op = ops[i];
    if (op.kind == OracleOp::kIndex) {
      const Rect colors = oracle_colors(op.part);
      const RegionId pr = parent(op.part, op.region);
      IndexLauncher launcher = IndexLauncher::over(Domain(colors)).with_task(task);
      launcher.region(pr, part(op.part), ProjectionFunctor::identity(2), {op.field}, op.priv,
                      redop(op.priv));
      const FieldId g = 1 - op.field;
      Rect read_colors;
      if (op.read_part >= 0) {
        read_colors = oracle_colors(op.read_part);
        launcher.region(
            roots[op.read_region], part(op.read_part),
            ProjectionFunctor::symbolic(
                {make_mod(make_add(make_coord(0), make_const(op.shift)),
                          make_const(read_colors.hi[0] + 1)),
                 make_mod(make_coord(1), make_const(read_colors.hi[1] + 1))}),
            {g}, Privilege::kRead);
      }
      rt.execute_index(launcher);
      for (const Point& p : colors) {
        OracleTask t{"oracle@", {}};
        t.uses.push_back(use_of(forest.subregion(pr, part(op.part), p), op.field, op.priv));
        if (op.read_part >= 0) {
          const Point q = Point::p2((p[0] + op.shift) % (read_colors.hi[0] + 1),
                                    p[1] % (read_colors.hi[1] + 1));
          t.uses.push_back(use_of(forest.subregion(roots[op.read_region], part(op.read_part), q), g,
                                  Privilege::kRead));
        }
        model.push_back(std::move(t));
      }
      continue;
    }
    const RegionId r = op.part < 0 ? roots[op.region]
                                   : forest.subregion(parent(op.part, op.region), part(op.part),
                                                      op.color);
    if (op.kind == OracleOp::kFill) {
      rt.fill(r, op.field, 1.0);
      model.push_back(OracleTask{"idxl_fill@", {use_of(r, op.field, Privilege::kWrite)}});
    } else {
      rt.execute(TaskLauncher::for_task(task).region(r, {op.field}, op.priv, redop(op.priv)));
      model.push_back(OracleTask{"oracle@", {use_of(r, op.field, op.priv)}});
    }
  }
  rt.pool().resume();
  rt.wait_all();
  run.dot = rt.profiler().task_graph_dot();
  return run;
}

bool oracle_conflict(const RegionForest& forest, const OracleTask& a, const OracleTask& b) {
  for (const OracleUse& u : a.uses)
    for (const OracleUse& v : b.uses)
      if (u.tree == v.tree && (u.fields & v.fields) != 0 && (u.writes || v.writes) &&
          !forest.domain(u.ispace).disjoint_from(forest.domain(v.ispace)))
        return true;
  return false;
}

class DependenceOracleFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DependenceOracleFuzz, EdgesAreConflictsAndOrderEveryConflict) {
  const std::vector<OracleOp> ops = random_oracle_program(GetParam());
  for (const bool group : {true, false}) {
    SCOPED_TRACE(group ? "group analysis on" : "group analysis off");
    const OracleRun run = run_oracle_program(ops, group);
    const std::vector<OracleTask>& model = run.model;
    const RegionForest& forest = run.rt->forest();

    // Nodes come in seq order, which is issue order: the i-th node is the
    // model's i-th task.
    std::unordered_map<uint64_t, std::size_t> index_of;
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    std::istringstream lines(run.dot);
    for (std::string line; std::getline(lines, line);) {
      uint64_t from = 0, to = 0;
      char label[64] = {};
      if (std::sscanf(line.c_str(), "  t%" SCNu64 " -> t%" SCNu64 ";", &from, &to) == 2) {
        ASSERT_TRUE(index_of.contains(from) && index_of.contains(to)) << line;
        edges.emplace_back(index_of[from], index_of[to]);
      } else if (std::sscanf(line.c_str(), "  t%" SCNu64 " [label=\"%63[^\"]", &from, label) == 2) {
        const std::size_t i = index_of.size();
        ASSERT_LT(i, model.size()) << "more tasks than the program issued";
        EXPECT_EQ(std::string(label).rfind(model[i].label_prefix, 0), 0u) << line;
        index_of.emplace(from, i);
      }
    }
    ASSERT_EQ(index_of.size(), model.size());

    // Check 1: every edge joins an earlier task to a later, conflicting one.
    const std::size_t n = model.size();
    std::vector<std::vector<std::size_t>> succ(n);
    for (const auto& [a, b] : edges) {
      EXPECT_LT(a, b);
      EXPECT_TRUE(oracle_conflict(forest, model[a], model[b]))
          << "edge between non-conflicting tasks " << a << " -> " << b;
      succ[a].push_back(b);
    }
    // Check 2: every conflicting pair is ordered. Edges point forward, so
    // one backward pass computes each task's reachable set.
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    for (std::size_t a = n; a-- > 0;)
      for (std::size_t b : succ[a]) {
        reach[a][b] = true;
        for (std::size_t c = b + 1; c < n; ++c)
          if (reach[b][c]) reach[a][c] = true;
      }
    int conflicts = 0;
    for (std::size_t a = 0; a < n; ++a)
      for (std::size_t b = a + 1; b < n; ++b)
        if (oracle_conflict(forest, model[a], model[b])) {
          ++conflicts;
          EXPECT_TRUE(reach[a][b]) << "conflicting tasks " << a << " and " << b
                                   << " are unordered";
        }
    // Vacuity guard: the program must actually conflict.
    EXPECT_GT(conflicts, 10);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DependenceOracleFuzz, ::testing::Range<uint64_t>(1, 6));

}  // namespace
}  // namespace idxl
