#pragma once

#include <map>

#include "analysis/interference.hpp"
#include "compiler/ast.hpp"
#include "runtime/runtime.hpp"

namespace idxl::regent {

/// What the optimizer decided to emit for a candidate loop (§4).
enum class LoopStrategy : uint8_t {
  /// Statically proven safe: a bare index launch, zero runtime checks.
  kIndexLaunch,
  /// Static analysis left residual arguments: emit the Listing-3 dynamic
  /// check followed by a branch between the index launch and the loop.
  kGuardedIndexLaunch,
  /// Ineligible or statically proven unsafe: the original task loop.
  kTaskLoop,
};

const char* strategy_name(LoopStrategy s);

/// Compile-time verdict for one pair of launcher arguments in *different*
/// compiled loops of a program (cross_analyze_program). kDisjoint verdicts
/// carry `certified` — the CertificateChecker re-validated the analyzer's
/// proof — and tell the programmer the runtime will skip the cross-launch
/// dependence walk for this pair; kInterferes carries the validated racing
/// pair as a compile-time counterexample.
struct InterLaunchVerdict {
  std::size_t earlier_loop = 0;  ///< index of the earlier loop in the program
  uint32_t arg = 0;              ///< this loop's launcher argument
  uint32_t earlier_arg = 0;      ///< the earlier loop's launcher argument
  PairVerdict verdict = PairVerdict::kUnknown;
  bool certified = false;  ///< kDisjoint backed by a checker-validated proof
  std::string reason;
  std::optional<RaceWitness> witness;  ///< validated collision (kInterferes)
};

struct CompileDiagnostics {
  bool eligible = false;       ///< body shape admits an index launch
  std::string reason;          ///< why ineligible / unsafe, or which check ran
  SafetyOutcome static_outcome = SafetyOutcome::kSafeStatic;
  /// Racing pair refuting safety when the static tier proved the loop
  /// unsafe — the compile-time counterexample explain() surfaces.
  std::optional<RaceWitness> witness;
  /// Verdicts against every earlier eligible loop's arguments on the same
  /// region tree (filled by cross_analyze_program; empty for single loops).
  std::vector<InterLaunchVerdict> inter_launch;
};

/// Result of one execution of a compiled loop.
struct LoopRunResult {
  bool ran_as_index_launch = false;
  bool dynamic_check_ran = false;
  bool dynamic_check_passed = true;
  uint64_t dynamic_check_points = 0;
  /// Colliding pair when the emitted guard's dynamic check failed (arg
  /// indices refer to the guarded residual arguments, remapped back to
  /// launcher argument positions).
  std::optional<RaceWitness> witness;
  std::map<std::string, int64_t> scalars;  ///< final values of accumulators
};

/// The compiled artifact: behaviourally equivalent to interpreting the
/// loop, but executing via the strategy chosen at compile time. This is
/// our stand-in for Regent's AST-to-AST transformation — the "generated
/// code" is a closure over the runtime API instead of Lua/Terra source.
class CompiledLoop {
 public:
  LoopStrategy strategy() const { return strategy_; }
  const CompileDiagnostics& diagnostics() const { return diagnostics_; }

  /// Run the loop. For kGuardedIndexLaunch this first evaluates the
  /// emitted dynamic check (Listing 3) and then branches, exactly like the
  /// generated AST in the paper.
  LoopRunResult execute(Runtime& rt) const;

  /// Human-readable compilation report (strategy + per-argument verdicts).
  std::string explain() const;

 private:
  friend CompiledLoop compile_loop(const ForLoop&, const RegionForest&);
  friend void cross_analyze_program(std::vector<CompiledLoop>&, const RegionForest&);

  ForLoop loop_;
  LoopStrategy strategy_ = LoopStrategy::kTaskLoop;
  CompileDiagnostics diagnostics_;
  IndexLauncher launcher_;                 // valid unless kTaskLoop from ineligibility
  std::vector<uint32_t> residual_indices_; // launcher args the emitted guard checks
};

/// The §4 optimization pass: eligibility analysis, static safety analysis,
/// and hybrid code generation.
CompiledLoop compile_loop(const ForLoop& loop, const RegionForest& forest);

/// Whole-program companion pass: run the inter-launch interference analysis
/// (src/analysis/interference.hpp) over every pair of eligible compiled
/// loops and surface the per-argument-pair verdicts in each later loop's
/// CompileDiagnostics::inter_launch. Pairs on different region trees are
/// trivially disjoint and elided from the report.
void cross_analyze_program(std::vector<CompiledLoop>& loops,
                           const RegionForest& forest);

/// Reference semantics: interpret the loop as written (sequential task
/// launches). Used by tests to check compiled artifacts against the
/// original program.
LoopRunResult interpret_loop(const ForLoop& loop, Runtime& rt);

}  // namespace idxl::regent
