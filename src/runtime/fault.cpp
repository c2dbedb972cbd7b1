#include "runtime/fault.hpp"

#include <algorithm>
#include <cstdlib>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace idxl {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kException:
      return "exception";
    case FaultKind::kExplicit:
      return "explicit";
    case FaultKind::kInjected:
      return "injected";
    case FaultKind::kTimeout:
      return "timeout";
    case FaultKind::kCancelled:
      return "cancelled";
    case FaultKind::kPoisoned:
      return "poisoned";
  }
  return "?";
}

std::string TaskFault::to_string() const {
  std::string s = "task seq=" + std::to_string(seq);
  if (launch != UINT64_MAX) s += " launch=" + std::to_string(launch);
  s += " point=" + point.to_string();
  s += " kind=" + std::string(fault_kind_name(kind));
  s += " attempts=" + std::to_string(attempts);
  if (root != seq && root != UINT64_MAX) s += " root=" + std::to_string(root);
  if (!message.empty()) s += " msg=\"" + message + "\"";
  return s;
}

FaultReport FaultReport::for_launch(uint64_t launch) const {
  FaultReport r;
  for (const auto& f : failures)
    if (f.launch == launch) r.failures.push_back(f);
  for (const auto& p : poisoned)
    if (p.launch == launch) r.poisoned.push_back(p);
  return r;
}

std::string FaultReport::to_string() const {
  if (ok()) return "FaultReport: ok (no failures)";
  std::string s = "FaultReport: " + std::to_string(failures.size()) + " failure(s), " +
                  std::to_string(poisoned.size()) + " poisoned\n";
  for (const auto& f : failures) s += "  FAILED   " + f.to_string() + "\n";
  for (const auto& p : poisoned) s += "  POISONED " + p.to_string() + "\n";
  return s;
}

void FaultLog::record(TaskFault fault) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fault.kind == FaultKind::kPoisoned)
      poisoned_.push_back(std::move(fault));
    else
      failures_.push_back(std::move(fault));
  }
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

FaultReport FaultLog::report() const {
  FaultReport r;
  {
    std::lock_guard<std::mutex> lock(mu_);
    r.failures = failures_;
    r.poisoned = poisoned_;
  }
  auto by_seq = [](const TaskFault& a, const TaskFault& b) { return a.seq < b.seq; };
  std::sort(r.failures.begin(), r.failures.end(), by_seq);
  std::sort(r.poisoned.begin(), r.poisoned.end(), by_seq);
  return r;
}

void FaultLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  failures_.clear();
  poisoned_.clear();
  // epoch_ deliberately NOT reset: it is a monotone change detector and
  // observers may hold pre-clear values.
}

std::size_t FaultPlan::KeyHash::operator()(const Key& k) const {
  PointHash ph;
  uint64_t h = ph(k.point);
  h ^= k.launch + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h ^= static_cast<uint64_t>(k.attempt) + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return static_cast<std::size_t>(h);
}

FaultPlan& FaultPlan::fail(uint64_t launch, const Point& point, uint32_t attempt) {
  injections_.insert(Key{launch, attempt, point});
  return *this;
}

FaultPlan FaultPlan::random(uint64_t seed, double rate) {
  IDXL_REQUIRE(rate >= 0.0 && rate <= 1.0, "FaultPlan::random rate must be in [0,1]");
  FaultPlan plan;
  plan.seed_ = seed;
  plan.rate_ = rate;
  return plan;
}

bool FaultPlan::should_fail(uint64_t launch, const Point& point, uint32_t attempt) const {
  if (!injections_.empty() && injections_.count(Key{launch, attempt, point})) return true;
  if (rate_ <= 0.0) return false;
  // Pure function of (seed, launch, point, attempt): seed a fresh generator
  // from the mixed identity and draw once. No shared state, so concurrent
  // queries agree and any failure replays from the plan's seed alone.
  uint64_t mixed = seed_;
  auto mix = [&mixed](uint64_t v) {
    mixed ^= v + 0x9E3779B97F4A7C15ull + (mixed << 6) + (mixed >> 2);
  };
  mix(launch);
  mix(static_cast<uint64_t>(attempt));
  mix(static_cast<uint64_t>(point.dim));
  for (int i = 0; i < point.dim; ++i)
    mix(static_cast<uint64_t>(point.c[static_cast<std::size_t>(i)]));
  Rng rng(mixed);
  return rng.next_double() < rate_;
}

namespace {

// Parses "(c1,c2,...)" starting at spec[pos] (which must be '('); advances
// pos past the closing ')'.
Point parse_point(const std::string& spec, std::size_t& pos) {
  IDXL_REQUIRE(pos < spec.size() && spec[pos] == '(',
               "FaultPlan spec: expected '(' before point coordinates");
  ++pos;
  Point p;
  p.dim = 0;
  while (pos < spec.size() && spec[pos] != ')') {
    IDXL_REQUIRE(p.dim < kMaxDim, "FaultPlan spec: point has too many coordinates");
    std::size_t used = 0;
    const int64_t v = std::stoll(spec.substr(pos), &used);
    IDXL_REQUIRE(used > 0, "FaultPlan spec: bad coordinate");
    p.c[static_cast<std::size_t>(p.dim++)] = v;
    pos += used;
    if (pos < spec.size() && spec[pos] == ',') ++pos;
  }
  IDXL_REQUIRE(pos < spec.size() && spec[pos] == ')',
               "FaultPlan spec: unterminated point, expected ')'");
  ++pos;
  IDXL_REQUIRE(p.dim >= 1, "FaultPlan spec: point needs at least one coordinate");
  return p;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) try {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t end = std::min(spec.find(';', pos), spec.size());
    if (end == pos) {  // empty entry, e.g. trailing ';'
      ++pos;
      continue;
    }
    const std::string entry = spec.substr(pos, end - pos);
    if (entry.rfind("random:", 0) == 0) {
      // random:<seed>:<rate>
      const std::size_t colon = entry.find(':', 7);
      IDXL_REQUIRE(colon != std::string::npos, "FaultPlan spec: random needs :<seed>:<rate>");
      plan.seed_ = std::stoull(entry.substr(7, colon - 7));
      plan.rate_ = std::stod(entry.substr(colon + 1));
      IDXL_REQUIRE(plan.rate_ >= 0.0 && plan.rate_ <= 1.0,
                   "FaultPlan spec: random rate must be in [0,1]");
    } else {
      // L@(c1,c2)[:k]
      std::size_t used = 0;
      const uint64_t launch = std::stoull(entry, &used);
      IDXL_REQUIRE(used < entry.size() && entry[used] == '@',
                   "FaultPlan spec: expected L@(point)[:attempt]");
      std::size_t p = used + 1;
      const Point point = parse_point(entry, p);
      uint32_t attempt = 0;
      if (p < entry.size()) {
        IDXL_REQUIRE(entry[p] == ':', "FaultPlan spec: expected ':' before attempt");
        attempt = static_cast<uint32_t>(std::stoul(entry.substr(p + 1)));
      }
      plan.fail(launch, point, attempt);
    }
    pos = end + 1;
  }
  return plan;
} catch (const RuntimeError&) {
  throw;
} catch (const std::exception&) {
  // std::stoull and friends throw std::invalid_argument/out_of_range on
  // malformed numbers; normalize to the library's error type.
  throw RuntimeError("idxl: malformed FaultPlan spec: " + spec);
}

std::shared_ptr<const FaultPlan> FaultPlan::from_env() {
  const char* spec = std::getenv("IDXL_FAULT_PLAN");
  if (!spec || !*spec) return nullptr;
  return std::make_shared<const FaultPlan>(parse(spec));
}

std::string FaultPlan::to_string() const {
  std::vector<Key> keys(injections_.begin(), injections_.end());
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.launch != b.launch) return a.launch < b.launch;
    if (a.point != b.point) return a.point < b.point;
    return a.attempt < b.attempt;
  });
  std::string s;
  for (const auto& k : keys) {
    if (!s.empty()) s += ";";
    s += std::to_string(k.launch) + "@" + k.point.to_string();
    if (k.attempt != 0) {
      s += ':';
      s += std::to_string(k.attempt);
    }
  }
  if (rate_ > 0.0) {
    if (!s.empty()) s += ";";
    s += "random:" + std::to_string(seed_) + ":" + std::to_string(rate_);
  }
  return s;
}

namespace {
thread_local FaultFrame g_fault_frame;
}  // namespace

FaultFrameScope::FaultFrameScope(FaultFrame frame) : saved_(g_fault_frame) {
  g_fault_frame = frame;
}

FaultFrameScope::~FaultFrameScope() { g_fault_frame = saved_; }

const FaultFrame& current_fault_frame() { return g_fault_frame; }

bool current_task_cancelled() {
  const FaultFrame& f = g_fault_frame;
  if (f.cancel && f.cancel->load(std::memory_order_acquire)) return true;
  if (f.global_cancel && f.global_cancel->load(std::memory_order_acquire)) return true;
  return false;
}

}  // namespace idxl
