#include "analysis/interference.hpp"

#include <utility>

#include "analysis/absint.hpp"

namespace idxl {

namespace {

/// Pair probes beyond this many functor evaluations are not worth the issue
/// latency; the dynamic tracker handles those launches instead.
constexpr int64_t kMaxProbePoints = 1 << 16;

CertOp cert_op_of(ExprKind k) {
  switch (k) {
    case ExprKind::kConst: return CertOp::kConst;
    case ExprKind::kCoord: return CertOp::kCoord;
    case ExprKind::kAdd: return CertOp::kAdd;
    case ExprKind::kSub: return CertOp::kSub;
    case ExprKind::kMul: return CertOp::kMul;
    case ExprKind::kDiv: return CertOp::kDiv;
    case ExprKind::kMod: return CertOp::kMod;
    case ExprKind::kNeg: return CertOp::kNeg;
  }
  return CertOp::kConst;
}

/// abs_eval with a flight recorder: appends one postfix CertStep per
/// subexpression, claiming exactly the abstract value the interpreter
/// computed — the derivation the independent checker then re-validates.
std::optional<AbsVal> record_eval(const Expr& e, const Rect& bounds,
                                  std::vector<CertStep>& steps) {
  std::optional<AbsVal> v;
  int64_t leaf_value = 0;
  switch (e.kind) {
    case ExprKind::kConst:
      v = abs_const(e.value);
      leaf_value = e.value;
      break;
    case ExprKind::kCoord: {
      const auto axis = e.value;
      if (axis < 0 || axis >= bounds.dim()) return std::nullopt;
      v = abs_range(bounds.lo[static_cast<int>(axis)],
                    bounds.hi[static_cast<int>(axis)]);
      leaf_value = e.value;
      break;
    }
    case ExprKind::kNeg: {
      const auto a = record_eval(*e.lhs, bounds, steps);
      if (!a) return std::nullopt;
      v = abs_neg(*a);
      break;
    }
    default: {
      const auto a = record_eval(*e.lhs, bounds, steps);
      if (!a) return std::nullopt;
      const auto b = record_eval(*e.rhs, bounds, steps);
      if (!b) return std::nullopt;
      switch (e.kind) {
        case ExprKind::kAdd: v = abs_add(*a, *b); break;
        case ExprKind::kSub: v = abs_sub(*a, *b); break;
        case ExprKind::kMul: v = abs_mul(*a, *b); break;
        case ExprKind::kDiv: v = abs_div(*a, *b); break;
        case ExprKind::kMod: v = abs_mod(*a, *b); break;
        default: return std::nullopt;
      }
      break;
    }
  }
  if (!v) return std::nullopt;
  steps.push_back(
      {cert_op_of(e.kind), leaf_value, CertVal{v->lo, v->hi, v->mod, v->rem}});
  return v;
}

/// Wrap a fact-kind certificate, re-validate it through the independent
/// checker, and only then return the kDisjoint result: the runtime refuses
/// uncertified skips, including its own.
InterferenceResult certified(Certificate cert, const LaunchArgSummary& a,
                             const LaunchArgSummary& b, std::string reason) {
  InterferenceResult r;
  std::string why;
  if (!CertificateChecker::validate(cert, a.side(), b.side(), &why)) {
    r.verdict = PairVerdict::kUnknown;
    r.reason = "certificate rejected by checker: " + why;
    return r;
  }
  r.verdict = PairVerdict::kDisjoint;
  r.certificate = std::move(cert);
  r.reason = std::move(reason);
  return r;
}

std::string domain_fingerprint(const Domain& d) {
  // Dense bounds are a full-fidelity description; a sparse domain's
  // to_string() elides the point list, so serialize every point.
  if (d.dense()) return "R" + d.bounds().to_string();
  std::string s = "S";
  d.for_each([&](const Point& p) { s += p.to_string(); });
  return s;
}

}  // namespace

const char* pair_verdict_name(PairVerdict v) {
  switch (v) {
    case PairVerdict::kUnknown: return "unknown";
    case PairVerdict::kDisjoint: return "disjoint";
    case PairVerdict::kInterferes: return "interferes";
  }
  return "?";
}

CertSide LaunchArgSummary::side() const {
  CertSide s;
  s.functor = &functor;
  s.domain_bounds = domain.bounds();
  s.field_mask = field_mask;
  s.collection_uid = collection_uid;
  s.partition_uid = partition_uid;
  s.partition_disjoint = partition_disjoint;
  s.priv = priv;
  s.redop = redop;
  return s;
}

std::optional<std::string> LaunchArgSummary::fingerprint() const {
  if (!functor.is_symbolic()) return std::nullopt;
  // Built on the issue path (amortized, but still hot for novel shapes):
  // append in place instead of chaining operator+ temporaries.
  std::string k;
  k.reserve(192);
  k += "f=";
  for (const auto& e : functor.exprs()) {
    k += e->to_string();
    k += ';';
  }
  k += " d=";
  k += domain_fingerprint(domain);
  k += " cs=";
  k += color_space.to_string();
  k += " pd=";
  k += partition_disjoint ? '1' : '0';
  k += " pu=";
  k += std::to_string(partition_uid);
  k += " cu=";
  k += std::to_string(collection_uid);
  k += " fm=";
  k += std::to_string(field_mask);
  k += " pr=";
  k += std::to_string(static_cast<int>(priv));
  k += " ro=";
  k += std::to_string(static_cast<int>(redop));
  return k;
}

InterferenceResult analyze_interference(const LaunchArgSummary& a,
                                        const LaunchArgSummary& b) {
  InterferenceResult result;

  // Rule 1: disjoint field sets never interfere, whatever the functors do.
  if ((a.field_mask & b.field_mask) == 0) {
    Certificate cert;
    cert.kind = CertKind::kFieldsDisjoint;
    return certified(std::move(cert), a, b, "disjoint field masks");
  }
  // Rule 2: partitions of different collections name different data.
  if (a.collection_uid != b.collection_uid) {
    Certificate cert;
    cert.kind = CertKind::kDistinctCollections;
    return certified(std::move(cert), a, b, "distinct collections");
  }
  // Rule 3: two readers never race (reductions count as writes).
  if (!a.writes() && !b.writes()) {
    Certificate cert;
    cert.kind = CertKind::kReadOnly;
    return certified(std::move(cert), a, b, "both sides read-only");
  }

  // Rule 4: cross-functor image separation. Both arguments must route
  // through the *same disjoint* partition (distinct colors then name
  // disjoint data); a single output component with provably separated
  // images — an interval gap or incompatible residue classes — proves the
  // color sets disjoint.
  const bool same_disjoint_partition = a.partition_uid == b.partition_uid &&
                                       a.partition_disjoint &&
                                       b.partition_disjoint;
  if (same_disjoint_partition && a.functor.is_symbolic() &&
      b.functor.is_symbolic() && !a.domain.empty() && !b.domain.empty() &&
      a.functor.output_dim() == b.functor.output_dim()) {
    for (std::size_t c = 0; c < a.functor.exprs().size(); ++c) {
      Certificate cert;
      cert.kind = CertKind::kImageSeparation;
      cert.component = static_cast<uint32_t>(c);
      const auto va = record_eval(*a.functor.exprs()[c], a.domain.bounds(), cert.lhs);
      if (!va) continue;
      const auto vb = record_eval(*b.functor.exprs()[c], b.domain.bounds(), cert.rhs);
      if (!vb) continue;
      if (!abs_disjoint(*va, *vb)) continue;
      InterferenceResult r = certified(
          std::move(cert), a, b,
          "images separated on component " + std::to_string(c) + ": " +
              va->to_string() + " vs " + vb->to_string());
      if (r.verdict == PairVerdict::kDisjoint) return r;
      result.reason = r.reason;  // checker refused our own proof — surface it
    }
  }

  // Rule 5: bounded brute-force probe for a *refutation*. Only colors of
  // one shared partition are comparable, and the probe must stay cheap.
  if (a.partition_uid == b.partition_uid &&
      a.functor.output_dim() == b.functor.output_dim() && !a.domain.empty() &&
      !b.domain.empty() && a.domain.volume() <= kMaxProbePoints &&
      b.domain.volume() <= kMaxProbePoints &&
      a.domain.volume() * b.domain.volume() <= kMaxProbePoints) {
    std::optional<RaceWitness> found;
    a.domain.for_each([&](const Point& pa) {
      if (found) return;
      const Point ca = a.functor(pa);
      if (!a.color_space.contains(ca)) return;
      b.domain.for_each([&](const Point& pb) {
        if (found) return;
        const Point cb = b.functor(pb);
        if (ca == cb) {
          RaceWitness w;
          w.arg_i = 0;
          w.arg_j = 1;
          w.p1 = pa;
          w.p2 = pb;
          w.color = ca;
          found = w;
        }
      });
    });
    if (found && pair_witness_valid(a.functor, a.domain, b.functor, b.domain,
                                    *found)) {
      result.verdict = PairVerdict::kInterferes;
      result.witness = found;
      result.reason = "collision probe found " + found->to_string();
      return result;
    }
    if (!found && a.partition_disjoint && b.partition_disjoint) {
      // Exhaustive probe with no collision on a disjoint partition is a
      // *dynamic* disjointness proof; it carries no static certificate, so
      // it stays kUnknown — the runtime only skips on certified verdicts.
      if (result.reason.empty())
        result.reason = "probe found no collision (no certificate)";
    }
  }

  if (result.reason.empty())
    result.reason = "not decidable by the static pair analysis";
  return result;
}

std::optional<std::string> interference_key(const LaunchArgSummary& a,
                                            const LaunchArgSummary& b) {
  const auto ka = a.fingerprint();
  const auto kb = b.fingerprint();
  if (!ka || !kb) return std::nullopt;
  return make_interference_key(*ka, *kb);
}

std::string make_interference_key(const std::string& fp_a, const std::string& fp_b) {
  // Order-canonical so (a, b) and (b, a) share one entry.
  const std::string& lo = fp_a <= fp_b ? fp_a : fp_b;
  const std::string& hi = fp_a <= fp_b ? fp_b : fp_a;
  std::string k;
  k.reserve(4 + lo.size() + hi.size());
  k += "P|";
  k += lo;
  k += "||";
  k += hi;
  return k;
}

std::optional<PairVerdict> InterferenceCache::lookup(const std::string& k) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(k);
  if (it == map_.end()) {
    ++counters_.misses;
    return std::nullopt;
  }
  ++counters_.hits;
  return it->second;
}

void InterferenceCache::insert(const std::string& k, const InterferenceResult& r) {
  // A kDisjoint result without its certificate must never enter the cache.
  if (r.verdict == PairVerdict::kDisjoint && !r.certificate.has_value()) return;
  std::lock_guard<std::mutex> lock(mu_);
  map_.insert_or_assign(k, r.verdict);
}

std::size_t InterferenceCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

InterferenceCache::Counters InterferenceCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void InterferenceHistory::settle(Tree& th) {
  if (th.pending.empty()) return;
  for (Rec& r : th.pending) {
    if (!r.fp_built) {
      r.fp = r.summary.fingerprint();
      r.fp_built = true;
    }
    if (r.fp.has_value() && !th.seen.insert(*r.fp).second)
      continue;  // already recorded
    th.args.push_back(std::move(r));
    ++th.epoch;
  }
  th.pending.clear();
}

bool InterferenceHistory::certified_disjoint(uint32_t tree,
                                             const LaunchArgSummary& s,
                                             LazyFingerprint& fp,
                                             InterferenceCache& cache,
                                             uint64_t* pair_tests) {
  // No recorded launches on this tree: the walk would traverse empty lists,
  // which costs nothing — don't claim a certificate-backed skip.
  const auto it = trees_.find(tree);
  if (it == trees_.end()) return false;
  Tree& th = it->second;
  settle(th);
  if (th.args.empty()) return false;
  const std::optional<std::string>& sfp = fp.get(s);
  if (sfp.has_value()) {
    const auto m = th.memo.find(*sfp);
    if (m != th.memo.end() && m->second == th.epoch) return true;
  }
  for (const Rec& h : th.args) {
    std::optional<PairVerdict> v;
    std::optional<std::string> key;
    if (h.fp.has_value() && sfp.has_value()) {
      key = make_interference_key(*h.fp, *sfp);
      v = cache.lookup(*key);
    }
    if (!v.has_value()) {
      if (pair_tests != nullptr) ++*pair_tests;
      const InterferenceResult r = analyze_interference(h.summary, s);
      if (key.has_value()) cache.insert(*key, r);
      v = r.verdict;
    }
    if (*v != PairVerdict::kDisjoint) return false;
  }
  if (sfp.has_value()) th.memo[*sfp] = th.epoch;
  return true;
}

void InterferenceHistory::record(uint32_t tree, LaunchArgSummary s,
                                 LazyFingerprint fp) {
  trees_[tree].pending.push_back(
      Rec{std::move(s), std::move(fp.value), fp.built});
}

}  // namespace idxl
