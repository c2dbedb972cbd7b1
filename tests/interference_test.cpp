#include "analysis/interference.hpp"

#include <gtest/gtest.h>

#include "analysis/certificate.hpp"
#include "analysis/witness.hpp"
#include "functor/expr.hpp"
#include "functor/projection.hpp"

namespace idxl {
namespace {

ProjectionFunctor sym1(ExprPtr e, std::string name = "f") {
  std::vector<ExprPtr> exprs;
  exprs.push_back(std::move(e));
  return ProjectionFunctor::symbolic(std::move(exprs), std::move(name));
}

LaunchArgSummary make_arg(ProjectionFunctor f, Domain d,
                          Privilege priv = Privilege::kReadWrite,
                          uint64_t fields = 1, uint32_t partition = 1,
                          bool disjoint = true, uint32_t collection = 1) {
  LaunchArgSummary s;
  const int od = f.output_dim();
  s.functor = std::move(f);
  s.domain = std::move(d);
  s.color_space = od == 2 ? Rect::box2(1 << 12, 1 << 12) : Rect::line(1 << 20);
  s.partition_uid = partition;
  s.partition_disjoint = disjoint;
  s.collection_uid = collection;
  s.field_mask = fields;
  s.priv = priv;
  return s;
}

/// A kDisjoint verdict is only acceptable with a certificate the
/// independent checker validates.
void expect_certified_disjoint(const LaunchArgSummary& a,
                               const LaunchArgSummary& b) {
  const InterferenceResult r = analyze_interference(a, b);
  ASSERT_EQ(r.verdict, PairVerdict::kDisjoint) << r.reason;
  ASSERT_TRUE(r.certificate.has_value());
  std::string why;
  EXPECT_TRUE(CertificateChecker::validate(*r.certificate, a.side(), b.side(), &why))
      << why;
}

void expect_witnessed_interference(const LaunchArgSummary& a,
                                   const LaunchArgSummary& b) {
  const InterferenceResult r = analyze_interference(a, b);
  ASSERT_EQ(r.verdict, PairVerdict::kInterferes) << r.reason;
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_TRUE(
      pair_witness_valid(a.functor, a.domain, b.functor, b.domain, *r.witness));
}

// --- the eight cross-family kDisjoint launch-pair shapes ---

TEST(InterferenceShapes, AffineTimesAffine) {
  // 2i vs 2i+1: residue classes 0 and 1 mod 2.
  const auto f = sym1(make_mul(make_const(2), make_coord(0)));
  const auto g = sym1(make_add(make_mul(make_const(2), make_coord(0)), make_const(1)));
  expect_certified_disjoint(make_arg(f, Domain::line(8)),
                            make_arg(g, Domain::line(8)));
}

TEST(InterferenceShapes, AffineTimesStrided) {
  // 4i vs 2i+1: classes 0 mod 4 and 1 mod 2 are incompatible mod 2.
  const auto f = sym1(make_mul(make_const(4), make_coord(0)));
  const auto g = sym1(make_add(make_mul(make_const(2), make_coord(0)), make_const(1)));
  expect_certified_disjoint(make_arg(f, Domain::line(8)),
                            make_arg(g, Domain::line(8)));
}

TEST(InterferenceShapes, ComposedTimesQuotient) {
  // 2*(i%4) vs 2*(i/2)+1: both reduce to even-vs-odd.
  const auto f = sym1(
      make_mul(make_const(2), make_mod(make_coord(0), make_const(4))));
  const auto g = sym1(make_add(
      make_mul(make_const(2), make_div(make_coord(0), make_const(2))),
      make_const(1)));
  expect_certified_disjoint(make_arg(f, Domain::line(8)),
                            make_arg(g, Domain::line(8)));
}

TEST(InterferenceShapes, DisjointResidueClasses) {
  // 3i vs 3i+1: classes 0 and 1 mod 3.
  const auto f = sym1(make_mul(make_const(3), make_coord(0)));
  const auto g = sym1(make_add(make_mul(make_const(3), make_coord(0)), make_const(1)));
  expect_certified_disjoint(make_arg(f, Domain::line(16)),
                            make_arg(g, Domain::line(16)));
}

TEST(InterferenceShapes, DisjointIntervals) {
  // i vs i+1000 over [0,8): images [0,7] and [1000,1007].
  const auto f = sym1(make_coord(0));
  const auto g = sym1(make_add(make_coord(0), make_const(1000)));
  expect_certified_disjoint(make_arg(f, Domain::line(8)),
                            make_arg(g, Domain::line(8)));
}

TEST(InterferenceShapes, IdenticalFunctorDifferentCollections) {
  // Same identity functor, but the two args partition different trees.
  const auto a = make_arg(ProjectionFunctor::identity(1), Domain::line(8),
                          Privilege::kReadWrite, 1, 1, true, /*collection=*/1);
  const auto b = make_arg(ProjectionFunctor::identity(1), Domain::line(8),
                          Privilege::kReadWrite, 1, 2, true, /*collection=*/2);
  const InterferenceResult r = analyze_interference(a, b);
  ASSERT_EQ(r.verdict, PairVerdict::kDisjoint) << r.reason;
  ASSERT_TRUE(r.certificate.has_value());
  EXPECT_EQ(r.certificate->kind, CertKind::kDistinctCollections);
  expect_certified_disjoint(a, b);
}

TEST(InterferenceShapes, DelinearizedPairs) {
  // (i/8, i%8) vs (i/8+8, i%8) over [0,64): first components [0,7] vs [8,15].
  std::vector<ExprPtr> ea;
  ea.push_back(make_div(make_coord(0), make_const(8)));
  ea.push_back(make_mod(make_coord(0), make_const(8)));
  std::vector<ExprPtr> eb;
  eb.push_back(make_add(make_div(make_coord(0), make_const(8)), make_const(8)));
  eb.push_back(make_mod(make_coord(0), make_const(8)));
  const auto f = ProjectionFunctor::symbolic(std::move(ea), "delin");
  const auto g = ProjectionFunctor::symbolic(std::move(eb), "delin+8");
  expect_certified_disjoint(make_arg(f, Domain::line(64)),
                            make_arg(g, Domain::line(64)));
}

TEST(InterferenceShapes, QuadraticTimesAffine) {
  // 4i² vs 4i+2: classes 0 and 2 mod 4.
  const auto f = sym1(
      make_mul(make_const(4), make_mul(make_coord(0), make_coord(0))));
  const auto g = sym1(make_add(make_mul(make_const(4), make_coord(0)), make_const(2)));
  expect_certified_disjoint(make_arg(f, Domain::line(8)),
                            make_arg(g, Domain::line(8)));
}

// --- further certified rules ---

TEST(Interference, DisjointFieldMasks) {
  const auto a = make_arg(ProjectionFunctor::identity(1), Domain::line(8),
                          Privilege::kReadWrite, /*fields=*/0b01);
  const auto b = make_arg(ProjectionFunctor::identity(1), Domain::line(8),
                          Privilege::kReadWrite, /*fields=*/0b10);
  const InterferenceResult r = analyze_interference(a, b);
  ASSERT_EQ(r.verdict, PairVerdict::kDisjoint);
  EXPECT_EQ(r.certificate->kind, CertKind::kFieldsDisjoint);
  expect_certified_disjoint(a, b);
}

TEST(Interference, BothReadOnly) {
  const auto a = make_arg(ProjectionFunctor::identity(1), Domain::line(8),
                          Privilege::kRead);
  const auto b = make_arg(ProjectionFunctor::identity(1), Domain::line(8),
                          Privilege::kRead);
  const InterferenceResult r = analyze_interference(a, b);
  ASSERT_EQ(r.verdict, PairVerdict::kDisjoint);
  EXPECT_EQ(r.certificate->kind, CertKind::kReadOnly);
  expect_certified_disjoint(a, b);
}

TEST(Interference, SparseDomainsUseBoundingBoxSoundly) {
  // Sparse diagonal slices: bounding boxes widen the image, which can only
  // lose verdicts, never fabricate them. 2i vs 2i+1 still separates.
  const auto f = sym1(make_mul(make_const(2), make_coord(0)));
  const auto g = sym1(make_add(make_mul(make_const(2), make_coord(0)), make_const(1)));
  const Domain sparse = Domain::from_points({Point::p1(0), Point::p1(3), Point::p1(6)});
  expect_certified_disjoint(make_arg(f, sparse), make_arg(g, sparse));
}

// --- kInterferes with validated witnesses ---

TEST(Interference, IdenticalWritersInterfere) {
  const auto f = sym1(make_mul(make_const(2), make_coord(0)));
  expect_witnessed_interference(make_arg(f, Domain::line(8)),
                                make_arg(f, Domain::line(8)));
}

TEST(Interference, OverlappingAffineImagesInterfere) {
  // 2i vs i+2 share color 2 (i=1 / i=0).
  const auto f = sym1(make_mul(make_const(2), make_coord(0)));
  const auto g = sym1(make_add(make_coord(0), make_const(2)));
  expect_witnessed_interference(make_arg(f, Domain::line(8)),
                                make_arg(g, Domain::line(8)));
}

TEST(Interference, OpaqueCollisionFoundByProbe) {
  const auto f = ProjectionFunctor::opaque(
      [](const Point& p) { return Point::p1(p[0] / 2); }, 1, "half");
  expect_witnessed_interference(make_arg(f, Domain::line(8)),
                                make_arg(f, Domain::line(8)));
}

TEST(Interference, ReaderVsWriterSameColorInterferes) {
  const auto f = sym1(make_coord(0));
  expect_witnessed_interference(
      make_arg(f, Domain::line(8), Privilege::kRead),
      make_arg(f, Domain::line(8), Privilege::kReadWrite));
}

// --- kUnknown: the analysis refuses uncertified conclusions ---

TEST(Interference, AliasedPartitionStaysUnknown) {
  // Distinct colors of an *aliased* partition may still overlap, so even
  // even-vs-odd separation proves nothing.
  const auto f = sym1(make_mul(make_const(2), make_coord(0)));
  const auto g = sym1(make_add(make_mul(make_const(2), make_coord(0)), make_const(1)));
  const auto a = make_arg(f, Domain::line(8), Privilege::kReadWrite, 1, 1, false);
  const auto b = make_arg(g, Domain::line(8), Privilege::kReadWrite, 1, 1, false);
  EXPECT_EQ(analyze_interference(a, b).verdict, PairVerdict::kUnknown);
}

TEST(Interference, ProbeWithoutCertificateStaysUnknown) {
  // (i*i)%7 over [0,3) hits {0,1,4}; the constant 2 misses it — but the
  // abstract domain cannot prove that, and an exhaustive probe carries no
  // certificate, so the verdict must stay kUnknown (no uncertified skips).
  const auto f = sym1(make_mod(make_mul(make_coord(0), make_coord(0)), make_const(7)));
  const auto g = sym1(make_const(2));
  const auto a = make_arg(f, Domain::line(3));
  const auto b = make_arg(g, Domain::line(3));
  const InterferenceResult r = analyze_interference(a, b);
  EXPECT_EQ(r.verdict, PairVerdict::kUnknown);
  EXPECT_FALSE(r.certificate.has_value());
}

// --- the independent checker rejects every forgery ---

TEST(CertificateChecker, RejectsTamperedResidueClaim) {
  const auto f = sym1(make_mul(make_const(2), make_coord(0)));
  const auto g = sym1(make_add(make_mul(make_const(2), make_coord(0)), make_const(1)));
  const auto a = make_arg(f, Domain::line(8));
  const auto b = make_arg(g, Domain::line(8));
  InterferenceResult r = analyze_interference(a, b);
  ASSERT_EQ(r.verdict, PairVerdict::kDisjoint);
  Certificate forged = *r.certificate;
  // Claim the even image is actually the odd class — a lie about 2i.
  forged.lhs.back().val.rem = 1;
  EXPECT_FALSE(CertificateChecker::validate(forged, a.side(), b.side()));
}

TEST(CertificateChecker, RejectsCertificateAgainstDifferentFunctors) {
  const auto f = sym1(make_mul(make_const(2), make_coord(0)));
  const auto g = sym1(make_add(make_mul(make_const(2), make_coord(0)), make_const(1)));
  const auto a = make_arg(f, Domain::line(8));
  const auto b = make_arg(g, Domain::line(8));
  InterferenceResult r = analyze_interference(a, b);
  ASSERT_EQ(r.verdict, PairVerdict::kDisjoint);
  // Replaying the proof against an interfering pair (2i vs 2i) must fail
  // the structural match.
  EXPECT_FALSE(CertificateChecker::validate(*r.certificate, a.side(), a.side()));
}

TEST(CertificateChecker, RejectsMalformedClaims) {
  const auto f = sym1(make_coord(0));
  const auto a = make_arg(f, Domain::line(8));
  const auto b = make_arg(sym1(make_add(make_coord(0), make_const(1000))),
                          Domain::line(8));
  InterferenceResult r = analyze_interference(a, b);
  ASSERT_EQ(r.verdict, PairVerdict::kDisjoint);
  Certificate forged = *r.certificate;
  forged.lhs.back().val.mod = -3;  // structurally impossible
  EXPECT_FALSE(CertificateChecker::validate(forged, a.side(), b.side()));
}

TEST(CertificateChecker, RejectsReadOnlyCertificateForWriter) {
  Certificate cert;
  cert.kind = CertKind::kReadOnly;
  const auto a = make_arg(ProjectionFunctor::identity(1), Domain::line(8),
                          Privilege::kReadWrite);
  const auto b = make_arg(ProjectionFunctor::identity(1), Domain::line(8),
                          Privilege::kRead);
  EXPECT_FALSE(CertificateChecker::validate(cert, a.side(), b.side()));
}

TEST(CertificateChecker, RejectsNonDisjointPartitionForImageSeparation) {
  const auto f = sym1(make_mul(make_const(2), make_coord(0)));
  const auto g = sym1(make_add(make_mul(make_const(2), make_coord(0)), make_const(1)));
  const auto a = make_arg(f, Domain::line(8));
  const auto b = make_arg(g, Domain::line(8));
  InterferenceResult r = analyze_interference(a, b);
  ASSERT_EQ(r.verdict, PairVerdict::kDisjoint);
  auto aliased_a = a;
  auto aliased_b = b;
  aliased_a.partition_disjoint = aliased_b.partition_disjoint = false;
  EXPECT_FALSE(CertificateChecker::validate(*r.certificate, aliased_a.side(),
                                            aliased_b.side()));
}

// --- InterferenceCache ---

TEST(InterferenceCache, KeyIsOrderCanonical) {
  const auto a = make_arg(sym1(make_mul(make_const(2), make_coord(0))), Domain::line(8));
  const auto b = make_arg(
      sym1(make_add(make_mul(make_const(2), make_coord(0)), make_const(1))),
      Domain::line(8));
  const auto kab = interference_key(a, b);
  const auto kba = interference_key(b, a);
  ASSERT_TRUE(kab.has_value());
  EXPECT_EQ(*kab, *kba);
}

TEST(InterferenceCache, OpaqueFunctorsAreUncacheable) {
  const auto f = ProjectionFunctor::opaque(
      [](const Point& p) { return p; }, 1, "opq");
  const auto a = make_arg(f, Domain::line(8));
  const auto b = make_arg(ProjectionFunctor::identity(1), Domain::line(8));
  EXPECT_FALSE(interference_key(a, b).has_value());
}

TEST(InterferenceCache, InsertThenLookupHits) {
  const auto a = make_arg(sym1(make_mul(make_const(2), make_coord(0))), Domain::line(8));
  const auto b = make_arg(
      sym1(make_add(make_mul(make_const(2), make_coord(0)), make_const(1))),
      Domain::line(8));
  const auto key = interference_key(a, b);
  ASSERT_TRUE(key.has_value());
  InterferenceCache cache;
  EXPECT_FALSE(cache.lookup(*key).has_value());
  cache.insert(*key, analyze_interference(a, b));
  const auto v = cache.lookup(*key);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, PairVerdict::kDisjoint);
  EXPECT_EQ(cache.counters().hits, 1u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace idxl
