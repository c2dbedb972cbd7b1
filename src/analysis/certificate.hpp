#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "functor/projection.hpp"
#include "region/accessor.hpp"
#include "region/domain.hpp"

namespace idxl {

/// Proof certificates for inter-launch disjointness (the "verified" half of
/// a verified/unverified speculation gate): every kDisjoint verdict the
/// interference analyzer emits is backed by a small term that a
/// *separate, arithmetic-only* checker re-validates before the runtime is
/// allowed to skip a dynamic pair test. The checker deliberately shares no
/// code with the abstract interpreter (analysis/absint.*) — it re-derives
/// every claimed interval × residue-class fact from the launch descriptors
/// themselves — so a bug in the analyzer cannot both produce a wrong verdict
/// and approve it.
///
/// Certificate grammar (see docs/ANALYSIS.md):
///
///   cert      ::= fields-disjoint | distinct-collections
///               | read-only | image-separation(component, deriv, deriv)
///   deriv     ::= step*                 (postfix program, one per functor
///                                        component expression)
///   step      ::= op value claim
///   claim     ::= (lo, hi, mod, rem)    (interval × congruence abstract
///                                        value, absint encoding)
enum class CertKind : uint8_t {
  kFieldsDisjoint = 0,      ///< the two args touch disjoint field sets
  kDistinctCollections = 1, ///< args name partitions of different trees
  kReadOnly = 2,            ///< neither side writes (or reduces)
  kImageSeparation = 3,     ///< functor images provably disjoint on a component
};

/// Interval × congruence claim attached to one derivation step. Encoding
/// matches AbsVal: mod == 0 is the singleton {rem}; mod == 1 carries no
/// congruence (rem must be 0); mod >= 2 is the residue class rem + mod·Z
/// with rem in [0, mod) and both interval endpoints on the class.
struct CertVal {
  int64_t lo = 0, hi = 0;
  int64_t mod = 1, rem = 0;

  std::string to_string() const;
};

/// Operation of one derivation step; values mirror ExprKind so a derivation
/// can be structurally matched against the actual functor expression.
enum class CertOp : uint8_t {
  kConst = 0,
  kCoord = 1,
  kAdd = 2,
  kSub = 3,
  kMul = 4,
  kDiv = 5,
  kMod = 6,
  kNeg = 7,
};

struct CertStep {
  CertOp op = CertOp::kConst;
  int64_t value = 0;  ///< kConst: literal; kCoord: axis; 0 otherwise
  CertVal val;        ///< claimed abstract value of this subexpression
};

struct Certificate {
  CertKind kind = CertKind::kFieldsDisjoint;
  uint32_t component = 0;      ///< functor output component (kImageSeparation)
  std::vector<CertStep> lhs;   ///< derivation for the first launch argument
  std::vector<CertStep> rhs;   ///< derivation for the second launch argument

  std::string to_string() const;
};

/// Everything the checker is allowed to trust about one side of a launch
/// pair: the *actual* functor expression and launch-domain bounds (the facts
/// the certificate's claims are checked against) plus the descriptor fields
/// the non-image certificate kinds assert about.
struct CertSide {
  const ProjectionFunctor* functor = nullptr;
  Rect domain_bounds;
  uint64_t field_mask = ~uint64_t{0};
  uint32_t collection_uid = 0;
  uint32_t partition_uid = 0;
  bool partition_disjoint = false;
  Privilege priv = Privilege::kRead;
  ReductionOp redop = ReductionOp::kNone;
};

/// Independent re-validation of a certificate against two launch sides.
/// For kImageSeparation it (1) structurally matches each derivation against
/// the side's actual component expression, (2) re-derives every step's
/// interval and residue class from the claimed child values with exact
/// 128-bit arithmetic and rejects any claim that is not a sound
/// over-approximation, and (3) confirms the two root claims are disjoint
/// (separated intervals or incompatible residue classes). `why`, when
/// non-null, receives the reason for a rejection.
class CertificateChecker {
 public:
  static bool validate(const Certificate& cert, const CertSide& a,
                       const CertSide& b, std::string* why = nullptr);
};

}  // namespace idxl
