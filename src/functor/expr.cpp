#include "functor/expr.hpp"

#include <algorithm>

namespace idxl {

namespace {

ExprPtr make_node(ExprKind kind, int64_t value, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->value = value;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

int64_t safe_div(int64_t a, int64_t b) {
  IDXL_ASSERT_MSG(b != 0, "projection functor division by zero");
  return a / b;
}

int64_t safe_mod(int64_t a, int64_t b) {
  IDXL_ASSERT_MSG(b != 0, "projection functor modulo by zero");
  return a % b;
}

/// "(a op b)", appended in place: a `"(" + std::string` chain trips a false
/// -Wrestrict in GCC 12 at -O3 (GCC bug 105329).
std::string infix(const Expr& a, const char* op, const Expr& b) {
  std::string s(1, '(');
  s += a.to_string();
  s += op;
  s += b.to_string();
  s += ')';
  return s;
}

}  // namespace

ExprPtr make_const(int64_t v) { return make_node(ExprKind::kConst, v, nullptr, nullptr); }

ExprPtr make_coord(int axis) {
  IDXL_REQUIRE(axis >= 0 && axis < kMaxDim, "coordinate axis out of range");
  return make_node(ExprKind::kCoord, axis, nullptr, nullptr);
}

ExprPtr make_add(ExprPtr a, ExprPtr b) {
  return make_node(ExprKind::kAdd, 0, std::move(a), std::move(b));
}
ExprPtr make_sub(ExprPtr a, ExprPtr b) {
  return make_node(ExprKind::kSub, 0, std::move(a), std::move(b));
}
ExprPtr make_mul(ExprPtr a, ExprPtr b) {
  return make_node(ExprKind::kMul, 0, std::move(a), std::move(b));
}
ExprPtr make_div(ExprPtr a, ExprPtr b) {
  return make_node(ExprKind::kDiv, 0, std::move(a), std::move(b));
}
ExprPtr make_mod(ExprPtr a, ExprPtr b) {
  return make_node(ExprKind::kMod, 0, std::move(a), std::move(b));
}
ExprPtr make_neg(ExprPtr a) {
  return make_node(ExprKind::kNeg, 0, std::move(a), nullptr);
}

int64_t Expr::eval(const Point& p) const {
  switch (kind) {
    case ExprKind::kConst: return value;
    case ExprKind::kCoord:
      IDXL_ASSERT_MSG(value < p.dim, "functor references coordinate beyond launch dim");
      return p[static_cast<int>(value)];
    case ExprKind::kAdd: return lhs->eval(p) + rhs->eval(p);
    case ExprKind::kSub: return lhs->eval(p) - rhs->eval(p);
    case ExprKind::kMul: return lhs->eval(p) * rhs->eval(p);
    case ExprKind::kDiv: return safe_div(lhs->eval(p), rhs->eval(p));
    case ExprKind::kMod: return safe_mod(lhs->eval(p), rhs->eval(p));
    case ExprKind::kNeg: return -lhs->eval(p);
  }
  IDXL_ASSERT(false);
  return 0;
}

std::string Expr::to_string() const {
  switch (kind) {
    case ExprKind::kConst: return std::to_string(value);
    case ExprKind::kCoord: return std::string("i") + std::to_string(value);
    case ExprKind::kAdd: return infix(*lhs, " + ", *rhs);
    case ExprKind::kSub: return infix(*lhs, " - ", *rhs);
    case ExprKind::kMul: return infix(*lhs, " * ", *rhs);
    case ExprKind::kDiv: return infix(*lhs, " / ", *rhs);
    case ExprKind::kMod: return infix(*lhs, " % ", *rhs);
    case ExprKind::kNeg: return std::string("(-") + lhs->to_string() + ")";
  }
  return "?";
}

int Expr::max_coord() const {
  switch (kind) {
    case ExprKind::kConst: return -1;
    case ExprKind::kCoord: return static_cast<int>(value);
    case ExprKind::kNeg: return lhs->max_coord();
    default:
      return std::max(lhs ? lhs->max_coord() : -1, rhs ? rhs->max_coord() : -1);
  }
}

bool expr_equal(const Expr& a, const Expr& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ExprKind::kConst:
    case ExprKind::kCoord:
      return a.value == b.value;
    case ExprKind::kNeg:
      return expr_equal(*a.lhs, *b.lhs);
    default:
      return expr_equal(*a.lhs, *b.lhs) && expr_equal(*a.rhs, *b.rhs);
  }
}

CompiledExpr::CompiledExpr(const Expr& root) {
  // Post-order flattening; evaluation becomes a linear scan with an
  // explicit operand stack.
  std::size_t depth = 0, max_depth = 0;
  auto flatten = [&](auto&& self, const Expr& e) -> void {
    switch (e.kind) {
      case ExprKind::kConst:
      case ExprKind::kCoord:
        ops_.push_back({e.kind, e.value});
        max_depth = std::max(max_depth, ++depth);
        return;
      case ExprKind::kNeg:
        self(self, *e.lhs);
        ops_.push_back({e.kind, 0});
        return;
      default:
        self(self, *e.lhs);
        self(self, *e.rhs);
        ops_.push_back({e.kind, 0});
        --depth;  // two operands collapse into one
        return;
    }
  };
  flatten(flatten, root);
  stack_.resize(max_depth);
}

int64_t CompiledExpr::eval(const Point& p) const {
  int64_t* sp = stack_.data();
  for (const Op& op : ops_) {
    switch (op.kind) {
      case ExprKind::kConst: *sp++ = op.value; break;
      case ExprKind::kCoord: *sp++ = p.c[static_cast<std::size_t>(op.value)]; break;
      case ExprKind::kAdd: sp[-2] = sp[-2] + sp[-1]; --sp; break;
      case ExprKind::kSub: sp[-2] = sp[-2] - sp[-1]; --sp; break;
      case ExprKind::kMul: sp[-2] = sp[-2] * sp[-1]; --sp; break;
      case ExprKind::kDiv: sp[-2] = safe_div(sp[-2], sp[-1]); --sp; break;
      case ExprKind::kMod: sp[-2] = safe_mod(sp[-2], sp[-1]); --sp; break;
      case ExprKind::kNeg: sp[-1] = -sp[-1]; break;
    }
  }
  IDXL_ASSERT(sp == stack_.data() + 1);
  return sp[-1];
}

}  // namespace idxl
