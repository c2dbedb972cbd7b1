#include "analysis/certificate.hpp"

#include <algorithm>
#include <optional>

#include "functor/expr.hpp"

namespace idxl {

namespace {

// The checker is deliberately self-contained: it re-derives every claim with
// its own exact 128-bit arithmetic rather than calling into analysis/absint,
// so an analyzer bug cannot approve its own wrong verdict.
using i128 = __int128;

i128 abs_i128(i128 v) { return v < 0 ? -v : v; }

i128 gcd_i128(i128 a, i128 b) {
  a = abs_i128(a);
  b = abs_i128(b);
  while (b != 0) {
    const i128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Floor-modulus into [0, m); m >= 1.
i128 floor_rem(i128 a, i128 m) {
  i128 r = a % m;
  if (r < 0) r += m;
  return r;
}

/// Derived abstract set, computed by the checker itself from the claimed
/// children of a step: the integers x with lo <= x <= hi and (mod == 0 ?
/// x == rem : mod == 1 ? true : x ≡ rem (mod mod)). Kept in 128-bit so the
/// checker never wraps; `empty` marks a provably empty set (any claim
/// over-approximates it).
struct Derived {
  i128 lo = 0, hi = 0;
  i128 mod = 1, rem = 0;
  bool empty = false;
};

Derived derived_const(i128 c) { return Derived{c, c, 0, c, false}; }

/// Tighten the interval endpoints onto the congruence class and collapse
/// singletons, mirroring the analyzer's normalize() so a claim equal to the
/// analyzer's result always passes the containment check.
Derived tighten(Derived v) {
  if (v.empty) return v;
  if (v.mod == 0) {
    v.lo = v.hi = v.rem;
    return v;
  }
  if (v.lo > v.hi) {
    v.empty = true;
    return v;
  }
  if (v.mod >= 2) {
    v.rem = floor_rem(v.rem, v.mod);
    v.lo += floor_rem(v.rem - v.lo, v.mod);
    v.hi -= floor_rem(v.hi - v.rem, v.mod);
    if (v.lo > v.hi) {
      v.empty = true;
      return v;
    }
  } else {
    v.rem = 0;
  }
  if (v.lo == v.hi) {
    v.mod = 0;
    v.rem = v.lo;
  }
  return v;
}

/// Structural well-formedness of a claimed value: the interval and the
/// residue class must describe a consistent set, otherwise later transfer
/// steps could mix the two views unsoundly.
bool well_formed(const CertVal& v) {
  if (v.mod < 0) return false;
  if (v.mod == 0) return v.lo == v.hi && v.lo == v.rem;
  if (v.lo > v.hi) return false;
  if (v.mod == 1) return v.rem == 0;
  return v.rem >= 0 && v.rem < v.mod &&
         floor_rem(v.lo, v.mod) == v.rem && floor_rem(v.hi, v.mod) == v.rem;
}

/// Does the claimed value R cover every integer of the derived set S?
/// (Sound direction: accepting R means gamma(R) ⊇ gamma(S) ⊇ concrete.)
bool claim_covers(const CertVal& r, const Derived& s) {
  if (s.empty) return true;
  if (r.mod == 0) return s.mod == 0 && s.rem == r.rem;
  if (s.lo < r.lo || s.hi > r.hi) return false;
  if (r.mod == 1) return true;
  // r.mod >= 2: S's class must be a subset of R's class.
  if (s.mod == 0) return floor_rem(s.rem, r.mod) == r.rem;
  if (s.mod == 1) return false;
  return s.mod % r.mod == 0 && floor_rem(s.rem, r.mod) == r.rem;
}

Derived derived_neg(const Derived& a) {
  Derived r;
  r.lo = -a.hi;
  r.hi = -a.lo;
  r.mod = a.mod;
  r.rem = a.mod == 0 ? -a.rem : floor_rem(-a.rem, a.mod < 1 ? 1 : a.mod);
  return tighten(r);
}

Derived derived_add(const Derived& a, const Derived& b) {
  Derived r;
  r.lo = a.lo + b.lo;
  r.hi = a.hi + b.hi;
  r.mod = gcd_i128(a.mod, b.mod);
  r.rem = r.mod == 0 ? a.rem + b.rem : floor_rem(a.rem + b.rem, r.mod);
  return tighten(r);
}

Derived derived_mul(const Derived& a, const Derived& b) {
  Derived r;
  const i128 corners[4] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
  r.lo = *std::min_element(corners, corners + 4);
  r.hi = *std::max_element(corners, corners + 4);
  if (a.mod == 0 && b.mod == 0) {
    r.mod = 0;
    r.rem = a.rem * b.rem;
  } else if (a.mod == 0 || b.mod == 0) {
    // c · (m·Z + rem) ⊆ (|c|·m)·Z + c·rem.
    const Derived& k = a.mod == 0 ? a : b;
    const Derived& v = a.mod == 0 ? b : a;
    if (k.rem == 0) {
      r.mod = 0;
      r.rem = 0;
    } else {
      r.mod = abs_i128(k.rem) * (v.mod < 1 ? 1 : v.mod);
      r.rem = floor_rem(k.rem * v.rem, r.mod);
    }
  } else {
    // (ma·x + ra)(mb·y + rb) ≡ ra·rb  (mod gcd(ma·mb, ma·rb, mb·ra)); valid
    // for mod == 1 sides too (their rem is 0 by well-formedness).
    const i128 g = gcd_i128(gcd_i128(a.mod * b.mod, a.mod * b.rem), b.mod * a.rem);
    if (g <= 1) {
      r.mod = 1;
      r.rem = 0;
    } else {
      r.mod = g;
      r.rem = floor_rem(a.rem * b.rem, g);
    }
  }
  return tighten(r);
}

Derived derived_sub(const Derived& a, const Derived& b) {
  return derived_add(a, derived_neg(b));
}

/// Truncating division; only a constant divisor is certifiable.
std::optional<Derived> derived_div(const Derived& a, const Derived& b) {
  if (b.mod != 0 || b.rem == 0) return std::nullopt;
  const i128 c = b.rem;
  const i128 q1 = a.lo / c;  // i128 division truncates, like int64
  const i128 q2 = a.hi / c;
  Derived r;
  r.lo = std::min(q1, q2);
  r.hi = std::max(q1, q2);
  if (a.mod == 0) {
    r.mod = 0;
    r.rem = a.rem / c;
    return tighten(r);
  }
  const i128 ac = abs_i128(c);
  if (a.mod % ac == 0 && a.rem % ac == 0) {
    // Every member divides evenly, so division distributes over the class.
    r.mod = a.mod / ac;
    r.rem = r.mod <= 1 ? 0 : floor_rem(a.rem / c, r.mod);
  } else {
    r.mod = 1;
    r.rem = 0;
  }
  return tighten(r);
}

/// C++ remainder; only a constant nonzero modulus is certifiable.
std::optional<Derived> derived_mod(const Derived& a, const Derived& b) {
  if (b.mod != 0 || b.rem == 0) return std::nullopt;
  const i128 n = b.rem;
  const i128 N = abs_i128(n);
  if (a.mod == 0) return derived_const(a.rem % n);
  // The remainder is the identity on [0, N) and (-N, 0]: the result set is
  // exactly the input set, class information included.
  if ((a.lo >= 0 && a.hi < N) || (a.hi <= 0 && a.lo > -N)) return a;
  Derived r;
  r.lo = a.lo >= 0 ? 0 : std::max(a.lo, -(N - 1));
  r.hi = a.hi <= 0 ? 0 : std::min(a.hi, N - 1);
  // x % n ≡ x ≡ rem  (mod gcd(mod, N)), for C++ remainder of any sign.
  const i128 g = a.mod == 1 ? 1 : gcd_i128(a.mod, N);
  if (g > 1) {
    r.mod = g;
    r.rem = floor_rem(a.rem, g);
  } else {
    r.mod = 1;
    r.rem = 0;
  }
  return tighten(r);
}

bool fail(std::string* why, const std::string& msg) {
  if (why != nullptr) *why = msg;
  return false;
}

/// Flatten the actual expression into the postfix (op, value) sequence a
/// derivation must match 1:1, so certificate claims are anchored to the
/// launch's real functor and not an attacker-chosen stand-in.
void flatten_expr(const Expr& e, std::vector<CertStep>& out) {
  switch (e.kind) {
    case ExprKind::kConst:
      out.push_back({CertOp::kConst, e.value, {}});
      return;
    case ExprKind::kCoord:
      out.push_back({CertOp::kCoord, e.value, {}});
      return;
    case ExprKind::kNeg:
      flatten_expr(*e.lhs, out);
      out.push_back({CertOp::kNeg, 0, {}});
      return;
    default:
      flatten_expr(*e.lhs, out);
      flatten_expr(*e.rhs, out);
      CertOp op = CertOp::kAdd;
      switch (e.kind) {
        case ExprKind::kAdd: op = CertOp::kAdd; break;
        case ExprKind::kSub: op = CertOp::kSub; break;
        case ExprKind::kMul: op = CertOp::kMul; break;
        case ExprKind::kDiv: op = CertOp::kDiv; break;
        case ExprKind::kMod: op = CertOp::kMod; break;
        default: break;
      }
      out.push_back({op, 0, {}});
      return;
  }
}

/// Verify one side's derivation against the actual component expression and
/// the launch-domain bounds; on success `root` receives the (well-formed)
/// claimed root value.
bool verify_derivation(const std::vector<CertStep>& steps, const Expr& expr,
                       const Rect& bounds, CertVal* root, std::string* why) {
  std::vector<CertStep> expected;
  flatten_expr(expr, expected);
  if (expected.size() != steps.size())
    return fail(why, "derivation shape does not match the functor expression");
  std::vector<Derived> stack;
  stack.reserve(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const CertStep& s = steps[i];
    if (s.op != expected[i].op || s.value != expected[i].value)
      return fail(why, "derivation step " + std::to_string(i) +
                           " does not match the functor expression");
    if (!well_formed(s.val))
      return fail(why, "step " + std::to_string(i) + " claim is malformed: " +
                           s.val.to_string());
    Derived got;
    switch (s.op) {
      case CertOp::kConst:
        got = derived_const(s.value);
        break;
      case CertOp::kCoord: {
        if (s.value < 0 || s.value >= bounds.dim())
          return fail(why, "coordinate axis out of range");
        const auto axis = static_cast<int>(s.value);
        got.lo = bounds.lo[axis];
        got.hi = bounds.hi[axis];
        got = tighten(got);
        break;
      }
      case CertOp::kNeg: {
        if (stack.empty()) return fail(why, "derivation stack underflow");
        got = derived_neg(stack.back());
        stack.pop_back();
        break;
      }
      default: {
        if (stack.size() < 2) return fail(why, "derivation stack underflow");
        const Derived b = stack.back();
        stack.pop_back();
        const Derived a = stack.back();
        stack.pop_back();
        std::optional<Derived> r;
        switch (s.op) {
          case CertOp::kAdd: r = derived_add(a, b); break;
          case CertOp::kSub: r = derived_sub(a, b); break;
          case CertOp::kMul: r = derived_mul(a, b); break;
          case CertOp::kDiv: r = derived_div(a, b); break;
          case CertOp::kMod: r = derived_mod(a, b); break;
          default: return fail(why, "unknown derivation op");
        }
        if (!r) return fail(why, "step " + std::to_string(i) + " is not certifiable");
        got = *r;
        break;
      }
    }
    if (!claim_covers(s.val, got))
      return fail(why, "step " + std::to_string(i) + " claim " + s.val.to_string() +
                           " does not cover the derived value");
    // Continue with the *claimed* value: it over-approximates the derived
    // one, so downstream checks stay sound while matching the analyzer.
    stack.push_back(Derived{s.val.lo, s.val.hi, s.val.mod, s.val.rem, false});
  }
  if (stack.size() != 1) return fail(why, "derivation does not reduce to one value");
  *root = steps.back().val;
  return true;
}

/// Separation of two well-formed root claims: disjoint intervals, or residue
/// classes incompatible modulo gcd (gcd(0, m) = m covers constants).
bool roots_separated(const CertVal& a, const CertVal& b) {
  if (a.hi < b.lo || b.hi < a.lo) return true;
  const i128 g = gcd_i128(a.mod, b.mod);
  if (g == 0) return a.rem != b.rem;
  if (g == 1) return false;
  return floor_rem(a.rem, g) != floor_rem(b.rem, g);
}

}  // namespace

std::string CertVal::to_string() const {
  if (mod == 0) return std::string("{") + std::to_string(rem) + "}";
  std::string s = std::string("[") + std::to_string(lo) + "," + std::to_string(hi) + "]";
  if (mod > 1) s += " mod " + std::to_string(mod) + " == " + std::to_string(rem);
  return s;
}

std::string Certificate::to_string() const {
  switch (kind) {
    case CertKind::kFieldsDisjoint: return "cert(fields-disjoint)";
    case CertKind::kDistinctCollections: return "cert(distinct-collections)";
    case CertKind::kReadOnly: return "cert(read-only)";
    case CertKind::kImageSeparation:
      break;
  }
  std::string s = "cert(image-separation component=" + std::to_string(component);
  if (!lhs.empty()) s += " lhs=" + lhs.back().val.to_string();
  if (!rhs.empty()) s += " rhs=" + rhs.back().val.to_string();
  return s + ")";
}

bool CertificateChecker::validate(const Certificate& cert, const CertSide& a,
                                  const CertSide& b, std::string* why) {
  switch (cert.kind) {
    case CertKind::kFieldsDisjoint:
      if ((a.field_mask & b.field_mask) != 0)
        return fail(why, "field masks overlap");
      return true;
    case CertKind::kDistinctCollections:
      if (a.collection_uid == b.collection_uid)
        return fail(why, "arguments name the same collection");
      return true;
    case CertKind::kReadOnly:
      if (privilege_writes(a.priv) || privilege_writes(b.priv))
        return fail(why, "a side writes");
      return true;
    case CertKind::kImageSeparation:
      break;
  }
  if (a.functor == nullptr || b.functor == nullptr ||
      !a.functor->is_symbolic() || !b.functor->is_symbolic())
    return fail(why, "image separation requires symbolic functors");
  if (a.partition_uid != b.partition_uid)
    return fail(why, "image separation requires one common partition");
  if (!a.partition_disjoint || !b.partition_disjoint)
    return fail(why, "image separation requires a disjoint partition");
  const auto c = static_cast<std::size_t>(cert.component);
  if (c >= a.functor->exprs().size() || c >= b.functor->exprs().size())
    return fail(why, "certificate component out of range");
  CertVal root_a, root_b;
  if (!verify_derivation(cert.lhs, *a.functor->exprs()[c], a.domain_bounds,
                         &root_a, why))
    return false;
  if (!verify_derivation(cert.rhs, *b.functor->exprs()[c], b.domain_bounds,
                         &root_b, why))
    return false;
  if (!roots_separated(root_a, root_b))
    return fail(why, "root values " + root_a.to_string() + " and " +
                         root_b.to_string() + " are not separated");
  return true;
}

}  // namespace idxl
