//===- analysis/AliasAnalysis.h - Probabilistic load aliasing ---*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A probabilistic points-to summary for Load instructions. The paper
/// drops every load to ⊥ ("ranges become bottom", §3.5); this pass
/// recovers two tiers of information so the propagation engine can do
/// better (docs/DOMAINS.md, "Load aliasing"):
///
///  Tier (a) — store-to-load forwarding. A load whose own basic block
///  contains an earlier store to the same object at a provably identical
///  index (the same SSA value, or equal integer constants), with no
///  intervening store to that object and — for globals, which a callee
///  can reach — no intervening call, must observe exactly the stored SSA
///  value. The load's range IS the stored value's range.
///
///  Tier (b) — weighted may-alias candidates. For an object whose stores
///  all occur in the load's own function (the "exclusive writer"
///  property, checked module-wide) — or that is never stored at all —
///  every value the loaded cell can hold is either the cell's initial
///  value or one of those stores' operands, in ANY activation (globals
///  persist across calls, but only this function writes them; locals are
///  reinitialized per activation). Each store becomes a candidate
///  weighted by the probability its index overlaps the load's: 1 for a
///  provably identical index, 0 (excluded) for provably distinct
///  constants, 1/size as the uniform-indexing estimate otherwise. The
///  initial value joins with the leftover weight, floored so it is never
///  fully crowded out. The engine meets the candidates' ranges with
///  these weights instead of returning ⊥.
///
/// Objects with stores in other functions stay ⊥: the summary never
/// guesses across function boundaries, so it is sound under recursion
/// and (post-)cloning — clones that duplicate a store break exclusivity
/// and conservatively disable tier (b) for that object.
///
/// The one module-level fact the summary needs — who stores to each
/// object — lives in an AliasEnvironment, built once per module version
/// and shared by every per-function query. Because the summary depends
/// on facts outside the function's own IR text (who else stores to an
/// object; initial cell values), every content-addressed cache keyed on
/// that text must also fold in environmentText() — see
/// PersistentCache::makeKey and the incremental scheduler's
/// changed-function fingerprint.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_ANALYSIS_ALIASANALYSIS_H
#define VRP_ANALYSIS_ALIASANALYSIS_H

#include <string>
#include <unordered_map>
#include <vector>

namespace vrp {

class Function;
class Instruction;
class LoadInst;
class MemoryObject;
class Module;
class StoreInst;
class Value;

/// The module-wide store census: for each stored object, its sole writer
/// function, or null when several functions store to it. Objects absent
/// from the census are never stored.
///
/// Lifetime: one environment per module *version*. It reads every
/// function's stores, so any change to the module's store set — a new
/// function, an edited body, a clone — needs a fresh one. The
/// interprocedural driver rebuilds it next to the call graph (including
/// after cloning), and incremental re-analysis builds one per side: the
/// previous module's and the current one's. Read-only once built, so
/// concurrent queries for different functions are safe.
class AliasEnvironment {
public:
  explicit AliasEnvironment(const Module &M);

  const Module &module() const { return M; }

  /// True when every value \p O can hold while \p F runs was produced by
  /// \p F itself (or is the initial value).
  bool exclusiveTo(const MemoryObject *O, const Function *F) const {
    auto It = SoleWriter.find(O);
    return It == SoleWriter.end() || It->second == F;
  }

private:
  const Module &M;
  std::unordered_map<const MemoryObject *, const Function *> SoleWriter;
};

/// One weighted reaching-definition candidate for a load.
struct AliasCandidate {
  /// The stored SSA value, or null for the cell's initial value.
  const Value *Stored = nullptr;
  /// Index-overlap weight (see file comment); candidates with weight 0
  /// are never emitted.
  double Weight = 0.0;
  /// The initial cell value; meaningful only when Stored is null.
  double InitValue = 0.0;
};

/// What the pass knows about one load. Exactly one of the tiers applies:
/// a non-null Forwarded pointer (tier a) or a non-empty candidate list
/// (tier b).
struct LoadAliasInfo {
  const Value *Forwarded = nullptr;
  std::vector<AliasCandidate> Candidates;
};

/// The per-function alias summary, built per propagation run from the
/// function's own IR and its module's AliasEnvironment. Memoizing it
/// across module versions would go stale silently — exclusivity changes
/// whenever any function's stores change — so freshness is the
/// environment's job: callers pass the environment of the module version
/// being analyzed.
class AliasInfo {
public:
  AliasInfo() = default;

  /// Builds the summary for \p F against \p Env, which must be the
  /// environment of F's current module. Pure and read-only: safe to run
  /// concurrently for different functions of the same (unmutated) module.
  static AliasInfo analyze(const Function &F, const AliasEnvironment &Env);

  /// One-shot form: builds a throwaway environment of F's module first,
  /// a whole-module walk per call.
  static AliasInfo analyze(const Function &F);

  /// The summary for \p L, or null when the load must stay ⊥.
  const LoadAliasInfo *infoFor(const LoadInst *L) const {
    auto It = Loads.find(L);
    return It == Loads.end() ? nullptr : &It->second;
  }

  /// Loads whose range depends on \p St (its forwarding source or one of
  /// its tier-(b) candidates). The engine re-pushes these when the store
  /// is reached on the SSA worklist, exactly as updateRange pushes SSA
  /// users. Deterministic order (block/instruction walk order).
  const std::vector<const LoadInst *> &dependentLoads(const StoreInst *St) const {
    auto It = Deps.find(St);
    return It == Deps.end() ? Empty : It->second;
  }

  /// The module-level facts this summary reads beyond \p F's own IR
  /// text, rendered deterministically: one line per object loaded in F
  /// with its exclusivity bit, size, and initial value (hex-float).
  /// Content-addressed caches keyed on the function's IR must append
  /// this so a change in another function's stores invalidates F.
  static std::string environmentText(const Function &F,
                                     const AliasEnvironment &Env);

  /// One-shot form, as for analyze().
  static std::string environmentText(const Function &F);

private:
  std::unordered_map<const LoadInst *, LoadAliasInfo> Loads;
  std::unordered_map<const StoreInst *, std::vector<const LoadInst *>> Deps;
  std::vector<const LoadInst *> Empty;
};

} // namespace vrp

#endif // VRP_ANALYSIS_ALIASANALYSIS_H
