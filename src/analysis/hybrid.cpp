#include "analysis/hybrid.hpp"

#include "obs/event_log.hpp"

namespace idxl {

namespace {

std::string arg_desc(std::size_t i, const CheckArg& a) {
  return "arg " + std::to_string(i) + " (" + privilege_name(a.priv) + ", functor " +
         (a.functor ? a.functor->to_string() : "<none>") + ")";
}

std::string domain_key(const Domain& d) {
  // Dense bounds are a full-fidelity description; a sparse domain's
  // to_string() is not (it elides the point list), so serialize every point.
  if (d.dense()) return "R" + d.bounds().to_string();
  std::string s = "S";
  d.for_each([&](const Point& p) { s += p.to_string(); });
  return s;
}

SafetyReport analyze_uncached(
    std::span<const CheckArg> args, const Domain& domain,
    const AnalysisOptions& options,
    const std::function<bool(std::size_t, std::size_t)>& pair_independent) {
  SafetyReport report;
  std::vector<bool> flagged(args.size(), false);
  obs::EventLog::Scope static_scope(options.log, ProfCategory::kSafety,
                                    obs::EventLog::kNameSafetyStatic);

  // --- Self-checks (§3): each write/read-write argument needs a disjoint
  // partition and an injective functor. Reads and reductions are exempt.
  for (std::size_t i = 0; i < args.size(); ++i) {
    const CheckArg& a = args[i];
    IDXL_ASSERT(a.functor != nullptr);
    if (a.priv == Privilege::kRead || a.priv == Privilege::kReduce) continue;
    if (!a.partition_disjoint) {
      report.outcome = SafetyOutcome::kUnsafe;
      report.reason = arg_desc(i, a) + ": write privilege on an aliased partition";
      return report;
    }
    RaceWitness w;
    switch (static_injectivity(*a.functor, domain, options.extended_static, &w)) {
      case Tri::kYes:
        break;
      case Tri::kNo:
        report.outcome = SafetyOutcome::kUnsafe;
        w.arg_i = w.arg_j = static_cast<uint32_t>(i);
        report.witness = w;
        report.reason = arg_desc(i, a) +
                        ": projection functor is not injective over the launch domain"
                        "; witness: " + w.to_string();
        return report;
      case Tri::kUnknown:
        flagged[i] = true;
        break;
    }
  }

  // --- Cross-checks (§3): for each pair, one of the three escape hatches
  // must apply; the image-disjointness hatch may defer to the dynamic check.
  for (std::size_t i = 0; i < args.size(); ++i) {
    for (std::size_t j = i + 1; j < args.size(); ++j) {
      const CheckArg& a = args[i];
      const CheckArg& b = args[j];
      // Rule 0 (Legion's per-field privileges, which the paper's model
      // abstracts away): arguments naming disjoint field sets never touch
      // common data, whatever their privileges. This is what makes the
      // standard double-buffered stencil (read halo of field A, write
      // blocks of field B) statically safe.
      if ((a.field_mask & b.field_mask) == 0) continue;
      // Rule 1: both read, or both reductions with the same operator.
      if (a.priv == Privilege::kRead && b.priv == Privilege::kRead) continue;
      if (a.priv == Privilege::kReduce && b.priv == Privilege::kReduce &&
          a.redop == b.redop)
        continue;
      // Rule 2: partitions of collections that are themselves disjoint.
      const bool independent = pair_independent
                                   ? pair_independent(i, j)
                                   : a.collection_uid != b.collection_uid;
      if (independent) continue;
      // Rule 3: the same disjoint partition with disjoint functor images.
      if (a.partition_uid == b.partition_uid && a.partition_disjoint) {
        RaceWitness w;
        switch (static_images_disjoint(*a.functor, *b.functor, domain,
                                       options.extended_static, &w)) {
          case Tri::kYes:
            continue;
          case Tri::kNo:
            report.outcome = SafetyOutcome::kUnsafe;
            w.arg_i = static_cast<uint32_t>(i);
            w.arg_j = static_cast<uint32_t>(j);
            report.witness = w;
            report.reason = arg_desc(i, a) + " and " + arg_desc(j, b) +
                            ": functors select a common sub-collection with a writer"
                            "; witness: " + w.to_string();
            return report;
          case Tri::kUnknown:
            flagged[i] = flagged[j] = true;
            continue;
        }
      }
      report.outcome = SafetyOutcome::kUnsafe;
      report.reason = arg_desc(i, a) + " and " + arg_desc(j, b) +
                      ": interfering partitions of the same collection";
      return report;
    }
  }

  // --- Residual arguments go to the dynamic check.
  std::vector<CheckArg> dynamic_args;
  for (std::size_t i = 0; i < args.size(); ++i)
    if (flagged[i]) {
      dynamic_args.push_back(args[i]);
      report.residual_args.push_back(static_cast<uint32_t>(i));
    }

  static_scope.close();

  if (dynamic_args.empty()) {
    report.outcome = SafetyOutcome::kSafeStatic;
    return report;
  }
  if (!options.enable_dynamic_checks) {
    report.outcome = SafetyOutcome::kSafeUnchecked;
    return report;
  }

  obs::EventLog::Scope dynamic_scope(options.log, ProfCategory::kSafety,
                                     obs::EventLog::kNameSafetyDynamic);
  const DynamicCheckResult dyn = dynamic_cross_check(dynamic_args, domain);
  report.dynamic_points = dyn.points_evaluated;
  report.dynamic_bits = dyn.bitmask_bits;
  if (dyn.safe) {
    report.outcome = SafetyOutcome::kSafeDynamic;
  } else {
    report.outcome = SafetyOutcome::kUnsafe;
    report.reason = "dynamic check found a projection functor image conflict";
    if (dyn.witness) {
      // The dynamic check saw only the residual args; map its indices back
      // onto the caller's argument numbering.
      RaceWitness w = *dyn.witness;
      w.arg_i = report.residual_args[w.arg_i];
      w.arg_j = report.residual_args[w.arg_j];
      report.witness = w;
      report.reason += "; witness: " + w.to_string();
    }
  }
  return report;
}

}  // namespace

std::optional<std::string> VerdictCache::key(std::span<const CheckArg> args,
                                             const Domain& domain,
                                             const AnalysisOptions& options) {
  std::string k;
  k.reserve(64 + 96 * args.size());
  k += options.extended_static ? "E1" : "E0";
  k += options.enable_dynamic_checks ? "D1" : "D0";
  k += "|";
  k += domain_key(domain);
  for (const CheckArg& a : args) {
    // Opaque functors have no finite fingerprint; Expr::to_string() is
    // fully parenthesized, so symbolic ones serialize unambiguously.
    if (a.functor == nullptr || !a.functor->is_symbolic()) return std::nullopt;
    k += "|f=";
    for (const auto& e : a.functor->exprs()) {
      k += e->to_string();
      k += ";";
    }
    k += " cs=" + a.color_space.to_string();
    k += " pd=" + std::to_string(a.partition_disjoint ? 1 : 0);
    k += " pu=" + std::to_string(a.partition_uid);
    k += " cu=" + std::to_string(a.collection_uid);
    k += " fm=" + std::to_string(a.field_mask);
    k += " pr=" + std::to_string(static_cast<int>(a.priv));
    k += " ro=" + std::to_string(static_cast<int>(a.redop));
  }
  return k;
}

std::optional<SafetyReport> VerdictCache::lookup(const std::string& k) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(k);
  if (it == map_.end()) {
    ++counters_.misses;
    return std::nullopt;
  }
  ++counters_.hits;
  return it->second;
}

void VerdictCache::insert(const std::string& k, const SafetyReport& report) {
  std::lock_guard<std::mutex> lock(mu_);
  SafetyReport stored = report;
  stored.cache_hit = false;
  stored.cache_hits = stored.cache_misses = 0;
  map_.insert_or_assign(k, std::move(stored));
}

void VerdictCache::note_uncacheable() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.uncacheable;
}

void VerdictCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

std::size_t VerdictCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

VerdictCache::Counters VerdictCache::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

SafetyReport analyze_launch_safety(
    std::span<const CheckArg> args, const Domain& domain,
    const AnalysisOptions& options,
    const std::function<bool(std::size_t, std::size_t)>& pair_independent) {
  if (!options.verdict_cache) {
    return analyze_uncached(args, domain, options, pair_independent);
  }

  std::optional<std::string> cache_key;
  {
    obs::EventLog::Scope cache_scope(options.log, ProfCategory::kSafety,
                                     obs::EventLog::kNameSafetyCache);
    cache_key = VerdictCache::key(args, domain, options);
    if (cache_key) {
      if (auto hit = options.verdict_cache->lookup(*cache_key)) {
        SafetyReport report = std::move(*hit);
        report.cache_hit = true;
        report.dynamic_points = 0;  // no work was redone
        report.dynamic_bits = 0;
        const VerdictCache::Counters c = options.verdict_cache->counters();
        report.cache_hits = c.hits;
        report.cache_misses = c.misses;
        return report;
      }
    } else {
      options.verdict_cache->note_uncacheable();
    }
  }

  SafetyReport report = analyze_uncached(args, domain, options, pair_independent);
  if (cache_key) options.verdict_cache->insert(*cache_key, report);
  const VerdictCache::Counters c = options.verdict_cache->counters();
  report.cache_hits = c.hits;
  report.cache_misses = c.misses;
  return report;
}

}  // namespace idxl
