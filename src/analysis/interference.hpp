#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "analysis/certificate.hpp"
#include "analysis/witness.hpp"
#include "functor/projection.hpp"
#include "region/accessor.hpp"
#include "region/domain.hpp"

namespace idxl {

/// Static verdict for a *pair of launches*: can any task of launch A and
/// any task of launch B touch the same data with interfering privileges?
/// Extends the paper's per-launch hybrid analysis across launch boundaries;
/// the compiler's whole-program pass (compile_program) reports it per pair.
enum class PairVerdict : uint8_t {
  kUnknown = 0,   ///< neither proven disjoint nor refuted
  kDisjoint = 1,  ///< provably independent; backed by a checked certificate
  kInterferes = 2 ///< a concrete racing pair exists; backed by a RaceWitness
};

const char* pair_verdict_name(PairVerdict v);

/// One region argument of a launch, summarized for cross-launch analysis
/// (the inter-launch sibling of CheckArg; owns its functor/domain copies so
/// summaries can outlive the launch that produced them).
struct LaunchArgSummary {
  ProjectionFunctor functor = ProjectionFunctor::identity(1);
  Domain domain;                  ///< launch domain the functor ranges over
  Rect color_space;               ///< partition's (dense) color space
  uint32_t partition_uid = 0;
  bool partition_disjoint = false;
  uint32_t collection_uid = 0;    ///< identity of the underlying tree
  uint64_t field_mask = ~uint64_t{0};
  Privilege priv = Privilege::kRead;
  ReductionOp redop = ReductionOp::kNone;

  bool writes() const { return privilege_writes(priv); }

  /// The checker-facing view (the functor pointer aliases this summary).
  CertSide side() const;
};

struct InterferenceResult {
  PairVerdict verdict = PairVerdict::kUnknown;
  /// Present and checker-validated for every kDisjoint verdict: an
  /// unvalidated certificate downgrades the verdict to kUnknown before it
  /// ever reaches a caller.
  std::optional<Certificate> certificate;
  /// Present and pair_witness_valid()-validated for every kInterferes.
  std::optional<RaceWitness> witness;
  std::string reason;
};

/// Decide interference of two launch arguments. Rules, in order: disjoint
/// field masks; distinct collections; both sides read-only; cross-functor
/// image separation on some output component (same disjoint partition,
/// symbolic functors — residue-class or interval-gap proofs via the
/// interval × congruence domain, emitting a certificate the independent
/// checker validates before the verdict is returned); bounded brute-force
/// collision probe producing a validated witness. Anything else: kUnknown.
InterferenceResult analyze_interference(const LaunchArgSummary& a,
                                        const LaunchArgSummary& b);

}  // namespace idxl
