#include "analysis/absint.hpp"

#include <algorithm>
#include <numeric>

namespace idxl {

namespace {

using i128 = __int128;

constexpr int64_t kMax = INT64_MAX;
constexpr int64_t kMin = INT64_MIN;

i128 i128_abs(i128 v) { return v < 0 ? -v : v; }

i128 gcd128(i128 a, i128 b) {
  a = i128_abs(a);
  b = i128_abs(b);
  while (b != 0) {
    const i128 t = a % b;
    a = b;
    b = t;
  }
  return a;
}

/// Floor-modulus into [0, m); m >= 1. Works for any i128 input, so
/// congruence arithmetic never overflows internally.
int64_t mod_floor64(i128 a, int64_t m) {
  i128 r = a % m;
  if (r < 0) r += m;
  return static_cast<int64_t>(r);
}

/// Tighten the interval endpoints onto the congruence class and fold
/// singleton intervals to exact constants. A sound transfer chain always
/// leaves the two components with a non-empty intersection; an empty one is
/// treated defensively as "unanalyzable".
std::optional<AbsVal> normalize(AbsVal v) {
  if (v.mod == 0) {
    v.lo = v.hi = v.rem;
    return v;
  }
  if (v.lo > v.hi) return std::nullopt;
  if (v.mod > 1) {
    v.rem = mod_floor64(v.rem, v.mod);
    const int64_t up = mod_floor64(static_cast<i128>(v.rem) - v.lo, v.mod);
    const int64_t down = mod_floor64(static_cast<i128>(v.hi) - v.rem, v.mod);
    const i128 nlo = static_cast<i128>(v.lo) + up;
    const i128 nhi = static_cast<i128>(v.hi) - down;
    if (nlo > nhi) return std::nullopt;
    v.lo = static_cast<int64_t>(nlo);
    v.hi = static_cast<int64_t>(nhi);
  } else {
    v.rem = 0;
  }
  if (v.lo == v.hi) {
    v.mod = 0;
    v.rem = v.lo;
  }
  return v;
}

std::optional<int64_t> checked_mod(int64_t a, int64_t b) {
  if (b == 0) return std::nullopt;
  if (a == kMin && b == -1) return 0;  // remainder is 0; a/b would overflow
  return a % b;
}

}  // namespace

std::optional<int64_t> checked_add(int64_t a, int64_t b) {
  int64_t r;
  if (__builtin_add_overflow(a, b, &r)) return std::nullopt;
  return r;
}

std::optional<int64_t> checked_sub(int64_t a, int64_t b) {
  int64_t r;
  if (__builtin_sub_overflow(a, b, &r)) return std::nullopt;
  return r;
}

std::optional<int64_t> checked_mul(int64_t a, int64_t b) {
  int64_t r;
  if (__builtin_mul_overflow(a, b, &r)) return std::nullopt;
  return r;
}

std::optional<int64_t> checked_neg(int64_t a) {
  if (a == kMin) return std::nullopt;
  return -a;
}

std::optional<int64_t> checked_div(int64_t a, int64_t b) {
  if (b == 0) return std::nullopt;
  if (a == kMin && b == -1) return std::nullopt;
  return a / b;
}

bool AbsVal::contains(int64_t v) const {
  if (mod == 0) return v == rem;
  if (v < lo || v > hi) return false;
  if (mod == 1) return true;
  return mod_floor64(v, mod) == rem;
}

std::string AbsVal::to_string() const {
  if (mod == 0) return std::string("{") + std::to_string(rem) + "}";
  std::string s = std::string("[") + std::to_string(lo) + "," + std::to_string(hi) + "]";
  if (mod > 1) s += " mod " + std::to_string(mod) + " == " + std::to_string(rem);
  return s;
}

AbsVal abs_const(int64_t c) { return AbsVal{c, c, 0, c}; }

std::optional<AbsVal> abs_range(int64_t lo, int64_t hi) {
  if (lo > hi) return std::nullopt;
  if (lo == hi) return abs_const(lo);
  return AbsVal{lo, hi, 1, 0};
}

std::optional<AbsVal> abs_add(const AbsVal& a, const AbsVal& b) {
  const auto lo = checked_add(a.lo, b.lo);
  const auto hi = checked_add(a.hi, b.hi);
  if (!lo || !hi) return std::nullopt;
  AbsVal r;
  r.lo = *lo;
  r.hi = *hi;
  r.mod = std::gcd(a.mod, b.mod);
  r.rem = r.mod == 0 ? r.lo
                     : mod_floor64(static_cast<i128>(a.rem) + b.rem, std::max<int64_t>(r.mod, 1));
  return normalize(r);
}

std::optional<AbsVal> abs_neg(const AbsVal& a) {
  const auto lo = checked_neg(a.hi);
  const auto hi = checked_neg(a.lo);
  if (!lo || !hi) return std::nullopt;
  AbsVal r;
  r.lo = *lo;
  r.hi = *hi;
  r.mod = a.mod;
  r.rem = a.mod == 0 ? *lo : mod_floor64(-static_cast<i128>(a.rem), std::max<int64_t>(a.mod, 1));
  return normalize(r);
}

std::optional<AbsVal> abs_sub(const AbsVal& a, const AbsVal& b) {
  const auto nb = abs_neg(b);
  return nb ? abs_add(a, *nb) : std::nullopt;
}

std::optional<AbsVal> abs_mul(const AbsVal& a, const AbsVal& b) {
  const std::optional<int64_t> corners[4] = {
      checked_mul(a.lo, b.lo), checked_mul(a.lo, b.hi),
      checked_mul(a.hi, b.lo), checked_mul(a.hi, b.hi)};
  AbsVal r;
  r.lo = kMax;
  r.hi = kMin;
  for (const auto& c : corners) {
    if (!c) return std::nullopt;
    r.lo = std::min(r.lo, *c);
    r.hi = std::max(r.hi, *c);
  }
  if (a.mod == 0 && b.mod == 0) {
    r.mod = 0;
    r.rem = r.lo;
  } else if (a.mod == 0 || b.mod == 0) {
    // const · (m·Z + rem) = (|const|·m)·Z + const·rem
    const AbsVal& k = a.mod == 0 ? a : b;
    const AbsVal& v = a.mod == 0 ? b : a;
    if (k.rem == 0) {
      r.mod = 0;
      r.rem = 0;
    } else {
      // c·(m·Z + rem) = (|c|·m)·Z + c·rem; with m == 1 this still leaves
      // the multiples-of-c congruence, so no special case for plain ranges.
      const i128 m = i128_abs(static_cast<i128>(k.rem)) * std::max<int64_t>(v.mod, 1);
      if (m > kMax) {
        r.mod = 1;
        r.rem = 0;
      } else {
        r.mod = static_cast<int64_t>(m);
        r.rem = mod_floor64(static_cast<i128>(k.rem) * v.rem, r.mod);
      }
    }
  } else if (a.mod == 1 || b.mod == 1) {
    r.mod = 1;
    r.rem = 0;
  } else {
    // (ma·x + ra)(mb·y + rb) ≡ ra·rb  (mod gcd(ma·mb, ma·rb, mb·ra))
    const i128 g = gcd128(gcd128(static_cast<i128>(a.mod) * b.mod,
                                 static_cast<i128>(a.mod) * b.rem),
                          static_cast<i128>(b.mod) * a.rem);
    if (g <= 1 || g > kMax) {
      r.mod = 1;
      r.rem = 0;
    } else {
      r.mod = static_cast<int64_t>(g);
      r.rem = mod_floor64(static_cast<i128>(a.rem) * b.rem, r.mod);
    }
  }
  return normalize(r);
}

std::optional<AbsVal> abs_div(const AbsVal& a, const AbsVal& b) {
  if (b.mod != 0 || b.rem == 0) return std::nullopt;
  const int64_t c = b.rem;
  const auto q1 = checked_div(a.lo, c);
  const auto q2 = checked_div(a.hi, c);
  if (!q1 || !q2) return std::nullopt;
  AbsVal r;
  // Truncating division by a fixed divisor is monotone in the dividend
  // (nondecreasing for c > 0, nonincreasing for c < 0), so the endpoint
  // quotients bound the image.
  r.lo = std::min(*q1, *q2);
  r.hi = std::max(*q1, *q2);
  if (a.mod == 0) {
    r.mod = 0;
    r.rem = *q1;
    return normalize(r);
  }
  // Exact when c divides both the modulus and the residue: every concrete
  // x = k·mod + rem then divides evenly, so x/c = k·(mod/c) + rem/c.
  const int64_t ac = c == kMin ? 0 : (c < 0 ? -c : c);
  if (ac != 0 && a.mod % ac == 0 && a.rem % ac == 0) {
    r.mod = a.mod / ac;
    r.rem = r.mod <= 1 ? 0 : mod_floor64(a.rem / c, r.mod);
  } else {
    r.mod = 1;
    r.rem = 0;
  }
  return normalize(r);
}

std::optional<AbsVal> abs_mod(const AbsVal& a, const AbsVal& b) {
  if (b.mod != 0 || b.rem == 0 || b.rem == kMin) return std::nullopt;
  const int64_t n = b.rem;
  const int64_t N = n < 0 ? -n : n;
  if (a.mod == 0) {
    const auto v = checked_mod(a.rem, n);
    return v ? std::optional(abs_const(*v)) : std::nullopt;
  }
  // C++ remainder is the identity on [0, N) and (-N, 0].
  if (a.lo >= 0 && a.hi < N) return a;
  if (a.hi <= 0 && a.lo > -N) return a;
  AbsVal r;
  r.lo = a.lo >= 0 ? 0 : std::max(a.lo, -(N - 1));
  r.hi = a.hi <= 0 ? 0 : std::min(a.hi, N - 1);
  // x % n differs from x by a multiple of n, so x % n ≡ x ≡ rem modulo
  // gcd(mod, N) — true for C++ remainder regardless of signs.
  const int64_t g = a.mod == 1 ? 1 : std::gcd(a.mod, N);
  if (g > 1) {
    r.mod = g;
    r.rem = mod_floor64(a.rem, g);
  } else {
    r.mod = 1;
    r.rem = 0;
  }
  return normalize(r);
}

bool abs_disjoint(const AbsVal& a, const AbsVal& b) {
  if (a.hi < b.lo || b.hi < a.lo) return true;
  // Residue classes rem_a + mod_a·Z and rem_b + mod_b·Z intersect iff
  // rem_a ≡ rem_b (mod gcd(mod_a, mod_b)); gcd(0, m) = m covers constants.
  const int64_t g = std::gcd(a.mod, b.mod);
  if (g == 0) return a.rem != b.rem;
  if (g == 1) return false;
  return mod_floor64(a.rem, g) != mod_floor64(b.rem, g);
}

std::optional<AbsVal> abs_eval(const Expr& e, const Rect& bounds) {
  switch (e.kind) {
    case ExprKind::kConst:
      return abs_const(e.value);
    case ExprKind::kCoord: {
      const auto axis = e.value;
      if (axis < 0 || axis >= bounds.dim()) return std::nullopt;
      return abs_range(bounds.lo[static_cast<int>(axis)], bounds.hi[static_cast<int>(axis)]);
    }
    case ExprKind::kNeg: {
      const auto a = abs_eval(*e.lhs, bounds);
      return a ? abs_neg(*a) : std::nullopt;
    }
    default: {
      const auto a = abs_eval(*e.lhs, bounds);
      const auto b = abs_eval(*e.rhs, bounds);
      if (!a || !b) return std::nullopt;
      switch (e.kind) {
        case ExprKind::kAdd: return abs_add(*a, *b);
        case ExprKind::kSub: return abs_sub(*a, *b);
        case ExprKind::kMul: return abs_mul(*a, *b);
        case ExprKind::kDiv: return abs_div(*a, *b);
        case ExprKind::kMod: return abs_mod(*a, *b);
        default: return std::nullopt;
      }
    }
  }
}

std::optional<std::vector<AbsVal>> abs_image(const ProjectionFunctor& f,
                                             const Domain& domain) {
  if (!f.is_symbolic() || domain.empty()) return std::nullopt;
  std::vector<AbsVal> out;
  out.reserve(f.exprs().size());
  for (const auto& e : f.exprs()) {
    const auto v = abs_eval(*e, domain.bounds());
    if (!v) return std::nullopt;
    out.push_back(*v);
  }
  return out;
}

uint32_t collect_axes(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kConst:
      return 0;
    case ExprKind::kCoord:
      return (e.value >= 0 && e.value < 32) ? (1u << e.value) : ~0u;
    case ExprKind::kNeg:
      return collect_axes(*e.lhs);
    default:
      return collect_axes(*e.lhs) | collect_axes(*e.rhs);
  }
}

std::optional<int64_t> const_fold(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kConst:
      return e.value;
    case ExprKind::kCoord:
      return std::nullopt;
    case ExprKind::kNeg: {
      const auto a = const_fold(*e.lhs);
      return a ? checked_neg(*a) : std::nullopt;
    }
    default: {
      const auto a = const_fold(*e.lhs);
      const auto b = const_fold(*e.rhs);
      if (!a || !b) return std::nullopt;
      switch (e.kind) {
        case ExprKind::kAdd: return checked_add(*a, *b);
        case ExprKind::kSub: return checked_sub(*a, *b);
        case ExprKind::kMul: return checked_mul(*a, *b);
        case ExprKind::kDiv: return checked_div(*a, *b);
        case ExprKind::kMod: return checked_mod(*a, *b);
        default: return std::nullopt;
      }
    }
  }
}

std::optional<Linear1D> match_linear_1d(const Expr& e, int axis) {
  if (const auto c = const_fold(e)) return Linear1D{0, *c};
  switch (e.kind) {
    case ExprKind::kCoord:
      return e.value == axis ? std::optional(Linear1D{1, 0}) : std::nullopt;
    case ExprKind::kNeg: {
      const auto a = match_linear_1d(*e.lhs, axis);
      if (!a) return std::nullopt;
      const auto na = checked_neg(a->a);
      const auto nb = checked_neg(a->b);
      if (!na || !nb) return std::nullopt;
      return Linear1D{*na, *nb};
    }
    case ExprKind::kAdd:
    case ExprKind::kSub: {
      const auto l = match_linear_1d(*e.lhs, axis);
      const auto r = match_linear_1d(*e.rhs, axis);
      if (!l || !r) return std::nullopt;
      const auto a = e.kind == ExprKind::kAdd ? checked_add(l->a, r->a)
                                              : checked_sub(l->a, r->a);
      const auto b = e.kind == ExprKind::kAdd ? checked_add(l->b, r->b)
                                              : checked_sub(l->b, r->b);
      if (!a || !b) return std::nullopt;
      return Linear1D{*a, *b};
    }
    case ExprKind::kMul: {
      const auto l = match_linear_1d(*e.lhs, axis);
      const auto r = match_linear_1d(*e.rhs, axis);
      if (!l || !r) return std::nullopt;
      if (l->a != 0 && r->a != 0) return std::nullopt;  // quadratic
      const auto t1 = checked_mul(l->a, r->b);
      const auto t2 = checked_mul(r->a, l->b);
      const auto b = checked_mul(l->b, r->b);
      if (!t1 || !t2 || !b) return std::nullopt;
      const auto a = checked_add(*t1, *t2);
      if (!a) return std::nullopt;
      return Linear1D{*a, *b};
    }
    default:
      return std::nullopt;
  }
}

std::optional<Quad1D> match_quad_1d(const Expr& e, int axis) {
  if (const auto c = const_fold(e)) return Quad1D{0, 0, *c};
  switch (e.kind) {
    case ExprKind::kCoord:
      return e.value == axis ? std::optional(Quad1D{0, 1, 0}) : std::nullopt;
    case ExprKind::kNeg: {
      const auto v = match_quad_1d(*e.lhs, axis);
      if (!v) return std::nullopt;
      const auto q = checked_neg(v->q);
      const auto a = checked_neg(v->a);
      const auto b = checked_neg(v->b);
      if (!q || !a || !b) return std::nullopt;
      return Quad1D{*q, *a, *b};
    }
    case ExprKind::kAdd:
    case ExprKind::kSub: {
      const auto l = match_quad_1d(*e.lhs, axis);
      const auto r = match_quad_1d(*e.rhs, axis);
      if (!l || !r) return std::nullopt;
      const bool add = e.kind == ExprKind::kAdd;
      const auto q = add ? checked_add(l->q, r->q) : checked_sub(l->q, r->q);
      const auto a = add ? checked_add(l->a, r->a) : checked_sub(l->a, r->a);
      const auto b = add ? checked_add(l->b, r->b) : checked_sub(l->b, r->b);
      if (!q || !a || !b) return std::nullopt;
      return Quad1D{*q, *a, *b};
    }
    case ExprKind::kMul: {
      const auto l = match_quad_1d(*e.lhs, axis);
      const auto r = match_quad_1d(*e.rhs, axis);
      if (!l || !r) return std::nullopt;
      // Product must stay degree <= 2: the x^4 and x^3 coefficients of
      // (lq·x² + la·x + lb)(rq·x² + ra·x + rb) must vanish identically.
      if (l->q != 0 && (r->q != 0 || r->a != 0)) return std::nullopt;
      if (r->q != 0 && (l->q != 0 || l->a != 0)) return std::nullopt;
      if (l->a != 0 && r->a != 0 && (l->q != 0 || r->q != 0)) return std::nullopt;
      const auto t1 = checked_mul(l->q, r->b);
      const auto t2 = checked_mul(l->a, r->a);
      const auto t3 = checked_mul(l->b, r->q);
      if (!t1 || !t2 || !t3) return std::nullopt;
      const auto q12 = checked_add(*t1, *t2);
      const auto q = q12 ? checked_add(*q12, *t3) : std::nullopt;
      const auto u1 = checked_mul(l->a, r->b);
      const auto u2 = checked_mul(l->b, r->a);
      if (!q || !u1 || !u2) return std::nullopt;
      const auto a = checked_add(*u1, *u2);
      const auto b = checked_mul(l->b, r->b);
      if (!a || !b) return std::nullopt;
      return Quad1D{*q, *a, *b};
    }
    default:
      return std::nullopt;
  }
}

DeltaSet delta_intersect(const DeltaSet& a, const DeltaSet& b) {
  if (a.stride == 0 || b.stride == 0) return DeltaSet::none();
  const int64_t g = std::gcd(a.stride, b.stride);
  const i128 l = static_cast<i128>(a.stride) / g * b.stride;
  // A common collision delta must be a multiple of both strides, i.e. of
  // their lcm; an lcm beyond int64 exceeds every representable extent.
  if (l > kMax) return DeltaSet::none();
  DeltaSet r;
  r.stride = static_cast<int64_t>(l);
  r.max_delta = std::min(a.max_delta, b.max_delta);
  if (r.max_delta < r.stride) return DeltaSet::none();
  return r;
}

DeltaSet collision_deltas(const Expr& e, int axis, int64_t lo, int64_t hi) {
  const Expr* cur = &e;
  // Strip injectivity-preserving outer layers — x ± c, −x, c·x (c ≠ 0),
  // x / ±1 — whose collisions are exactly those of the inner expression.
  bool stripped = true;
  while (stripped) {
    stripped = false;
    switch (cur->kind) {
      case ExprKind::kNeg:
        cur = cur->lhs.get();
        stripped = true;
        break;
      case ExprKind::kAdd:
      case ExprKind::kSub:
        if (const_fold(*cur->lhs)) {
          cur = cur->rhs.get();
          stripped = true;
        } else if (const_fold(*cur->rhs)) {
          cur = cur->lhs.get();
          stripped = true;
        }
        break;
      case ExprKind::kMul: {
        if (const auto cl = const_fold(*cur->lhs)) {
          if (*cl == 0) return DeltaSet::all();
          cur = cur->rhs.get();
          stripped = true;
        } else if (const auto cr = const_fold(*cur->rhs)) {
          if (*cr == 0) return DeltaSet::all();
          cur = cur->lhs.get();
          stripped = true;
        }
        break;
      }
      case ExprKind::kDiv: {
        const auto cr = const_fold(*cur->rhs);
        if (cr && (*cr == 1 || *cr == -1)) {
          cur = cur->lhs.get();
          stripped = true;
        }
        break;
      }
      default:
        break;
    }
  }

  if (collect_axes(*cur) == 0) return DeltaSet::all();  // constant in the axis

  switch (cur->kind) {
    case ExprKind::kCoord:
      return cur->value == axis ? DeltaSet::none() : DeltaSet::all();
    case ExprKind::kMod: {
      const auto n = const_fold(*cur->rhs);
      if (!n || *n == 0 || *n == kMin) return DeltaSet::all();
      const auto inner = match_linear_1d(*cur->lhs, axis);
      if (!inner || inner->a == 0 || inner->a == kMin) return DeltaSet::all();
      // (a·i+b) % n == (a·j+b) % n forces n | a·(i−j) (true for C++
      // remainder regardless of signs), hence (i−j) is a multiple of
      // n / gcd(|a|, n).
      const int64_t N = *n < 0 ? -*n : *n;
      const int64_t A = inner->a < 0 ? -inner->a : inner->a;
      DeltaSet r;
      r.stride = N / std::gcd(A, N);
      r.max_delta = kMax;
      return r;
    }
    case ExprKind::kDiv: {
      const auto c = const_fold(*cur->rhs);
      if (!c || *c == 0 || *c == kMin) return DeltaSet::all();
      const auto inner = match_linear_1d(*cur->lhs, axis);
      if (!inner || inner->a == 0 || inner->a == kMin) return DeltaSet::all();
      // trunc(x/c) == trunc(y/c) requires |x−y| <= 2|c|−2: the widest
      // preimage of one quotient is (−|c|, |c|) around quotient 0. When the
      // dividend a·i+b cannot change sign over [lo, hi], truncation behaves
      // like floor (or ceiling) and every preimage narrows to width |c|−1 —
      // the tightening that proves the delinearization pair (i%c, i/c).
      const int64_t C = *c < 0 ? -*c : *c;
      const int64_t A = inner->a < 0 ? -inner->a : inner->a;
      const i128 v1 = static_cast<i128>(inner->a) * lo + inner->b;
      const i128 v2 = static_cast<i128>(inner->a) * hi + inner->b;
      const bool single_sign = (v1 >= 0 && v2 >= 0) || (v1 <= 0 && v2 <= 0);
      const i128 width = single_sign ? static_cast<i128>(C) - 1
                                     : static_cast<i128>(2) * C - 2;
      const i128 md = width / A;
      if (md <= 0) return DeltaSet::none();
      return DeltaSet{1, md > kMax ? kMax : static_cast<int64_t>(md)};
    }
    default: {
      const auto q = match_quad_1d(*cur, axis);
      if (!q) return DeltaSet::all();
      if (q->q == 0) return q->a != 0 ? DeltaSet::none() : DeltaSet::all();
      if (hi <= lo) return DeltaSet::none();  // at most one point
      // Successive difference v(i+1)−v(i) = q·(2i+1) + a is linear in i;
      // one strict sign at both ends of [lo, hi−1] means strict
      // monotonicity, hence injectivity.
      const i128 d_first = static_cast<i128>(q->q) * (2 * static_cast<i128>(lo) + 1) + q->a;
      const i128 d_last =
          static_cast<i128>(q->q) * (2 * static_cast<i128>(hi - 1) + 1) + q->a;
      if ((d_first > 0 && d_last > 0) || (d_first < 0 && d_last < 0))
        return DeltaSet::none();
      return DeltaSet::all();
    }
  }
}

}  // namespace idxl
