#include "functor/projection.hpp"

namespace idxl {

ProjectionFunctor ProjectionFunctor::identity(int dim) {
  IDXL_REQUIRE(dim >= 1 && dim <= kMaxDim, "identity functor dimension out of range");
  std::vector<ExprPtr> exprs;
  exprs.reserve(static_cast<std::size_t>(dim));
  for (int d = 0; d < dim; ++d) exprs.push_back(make_coord(d));
  return symbolic(std::move(exprs), "identity");
}

ProjectionFunctor ProjectionFunctor::symbolic(std::vector<ExprPtr> exprs,
                                              std::string name) {
  IDXL_REQUIRE(!exprs.empty() && exprs.size() <= kMaxDim,
               "symbolic functor needs 1..kMaxDim output expressions");
  ProjectionFunctor f;
  f.out_dim_ = static_cast<int>(exprs.size());
  f.exprs_ = std::move(exprs);
  if (name.empty()) {
    name.assign(1, '[');
    for (std::size_t i = 0; i < f.exprs_.size(); ++i) {
      if (i) name += ", ";
      name += f.exprs_[i]->to_string();
    }
    name += "]";
  }
  f.name_ = std::move(name);
  return f;
}

ProjectionFunctor ProjectionFunctor::affine1d(int64_t a, int64_t b) {
  return symbolic({make_add(make_mul(make_const(a), make_coord(0)), make_const(b))},
                  std::to_string(a) + "*i + " + std::to_string(b));
}

ProjectionFunctor ProjectionFunctor::modular1d(int64_t k, int64_t n) {
  return symbolic({make_mod(make_add(make_coord(0), make_const(k)), make_const(n))},
                  "(i + " + std::to_string(k) + ") mod " + std::to_string(n));
}

ProjectionFunctor ProjectionFunctor::opaque(std::function<Point(const Point&)> fn,
                                            int out_dim, std::string name) {
  IDXL_REQUIRE(out_dim >= 1 && out_dim <= kMaxDim, "opaque functor dimension out of range");
  IDXL_REQUIRE(static_cast<bool>(fn), "opaque functor requires a callable");
  ProjectionFunctor f;
  f.out_dim_ = out_dim;
  f.fn_ = std::move(fn);
  f.name_ = std::move(name);
  return f;
}

Point ProjectionFunctor::operator()(const Point& p) const {
  if (!is_symbolic()) {
    Point r = fn_(p);
    IDXL_ASSERT_MSG(r.dim == out_dim_, "opaque functor produced wrong dimensionality");
    return r;
  }
  Point r;
  r.dim = out_dim_;
  for (int d = 0; d < out_dim_; ++d) r[d] = exprs_[static_cast<std::size_t>(d)]->eval(p);
  return r;
}

bool ProjectionFunctor::definitely_equal(const ProjectionFunctor& other) const {
  if (!is_symbolic() || !other.is_symbolic()) return false;
  if (out_dim_ != other.out_dim_) return false;
  for (int d = 0; d < out_dim_; ++d)
    if (!expr_equal(*exprs_[static_cast<std::size_t>(d)],
                    *other.exprs_[static_cast<std::size_t>(d)]))
      return false;
  return true;
}

void ProjectionFunctor::ensure_compiled() const {
  if (!is_symbolic() || !compiled_.empty()) return;
  compiled_.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) compiled_.emplace_back(*e);
}

void ProjectionFunctor::eval_into(const Point& p, int64_t* out) const {
  if (is_symbolic() && !compiled_.empty()) {
    for (int d = 0; d < out_dim_; ++d)
      out[d] = compiled_[static_cast<std::size_t>(d)].eval(p);
    return;
  }
  const Point r = (*this)(p);
  for (int d = 0; d < out_dim_; ++d) out[d] = r[d];
}

std::string ProjectionFunctor::to_string() const { return name_; }

}  // namespace idxl
