//===- vrp/Propagation.h - The VRP worklist engine --------------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The propagation engine (paper §3.3): a Wegman–Zadeck-style sparse
/// conditional propagator extended to weighted value ranges. Two worklists
/// are maintained — the FlowWorkList of CFG edges and the SSAWorkList of
/// def-use edges — with flow items preferred ("tends to cause information
/// to be gathered more quickly"). Every CFG edge carries a probability
/// rather than an executed flag; φ evaluation merges incoming ranges
/// weighted by in-edge probabilities; conditional branches are predicted
/// by consulting the tested value's range; loop-carried φs are derived
/// (vrp/Derivation.h) so loops need not be executed during propagation.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_VRP_PROPAGATION_H
#define VRP_VRP_PROPAGATION_H

#include "support/Status.h"
#include "vrp/Options.h"
#include "vrp/RangeOps.h"
#include "vrp/ValueRange.h"

#include <functional>
#include <map>
#include <unordered_map>

namespace vrp {

/// Final prediction for one conditional branch.
struct BranchPrediction {
  double ProbTrue = 0.5;
  bool FromRanges = false; ///< False: needs the heuristic fallback (§3.5).
  bool Reachable = true;   ///< False: propagation proved it unreachable.
};

/// Per-function propagation result: the paper's "output assignment" for
/// every variable plus branch predictions and efficiency counters.
struct FunctionVRPResult {
  const Function *F = nullptr;
  std::unordered_map<const Value *, ValueRange> Ranges;
  std::map<const CondBrInst *, BranchPrediction> Branches;
  /// Reach probability per block id (capped in-edge probability sum).
  std::vector<double> BlockProb;
  RangeStats Stats;
  /// True when a resource budget cut the analysis short: every range is
  /// ⊥ and every branch is marked for the Ball–Larus fallback, mirroring
  /// the paper's ⊥-range degradation (§3.5) at whole-function scope.
  bool Degraded = false;
  /// Exactly when Degraded: the structured cause (BudgetExceeded with a
  /// site of "propagation" for a blown step budget, "derivation" for a
  /// φ that never stabilized — the message names function and variable).
  Status DegradeCause;

  /// The whole-function ⊥ result: no ranges, every block presumed
  /// reachable, every branch handed to the Ball–Larus fallback at a
  /// neutral probability. \p Cause becomes DegradeCause. Counts nothing:
  /// each caller attributes the degradation itself.
  static FunctionVRPResult degraded(const Function &F, Status Cause);

  /// Range lookup with constant folding (constants get exact ranges).
  ValueRange rangeOf(const Value *V) const;

  /// The predicted probability of the CFG edge From->To being taken when
  /// From executes (1.0 for unconditional edges).
  double edgeFraction(const BasicBlock *From, const BasicBlock *To) const;
};

class AliasEnvironment;
class AnalysisCache;

/// Context hooks for interprocedural analysis (§3.7): parameter ranges via
/// jump functions and call-result ranges via return functions. The
/// intraprocedural defaults return ⊥.
struct PropagationContext {
  std::function<ValueRange(const Param *)> ParamRange;
  std::function<ValueRange(const CallInst *)> CallResultRange;

  /// Optional per-function analysis memo. When set, the engine reads its
  /// DFS numbering from the cache instead of recomputing it per run —
  /// interprocedural analysis re-propagates every function each round, so
  /// this saves one CFG walk per function per round. Must outlive the
  /// propagation call; must be thread-safe when functions are fanned out
  /// in parallel (analysis/AnalysisCache.h is).
  AnalysisCache *Cache = nullptr;

  /// Optional store census of the function's module
  /// (analysis/AliasAnalysis.h). When set, the engine's alias summary and
  /// the persistent-cache key read it instead of walking the whole module
  /// per function. Must be the census of the module version being
  /// analyzed and outlive the propagation call; read-only, so one
  /// environment serves parallel fan-outs.
  const AliasEnvironment *Alias = nullptr;

  static PropagationContext intraprocedural();
};

/// Runs value range propagation over one SSA-form function.
FunctionVRPResult propagateRanges(const Function &F, const VRPOptions &Opts,
                                  const PropagationContext &Context);

/// Convenience: intraprocedural propagation with default hooks.
FunctionVRPResult propagateRanges(const Function &F, const VRPOptions &Opts);

} // namespace vrp

#endif // VRP_VRP_PROPAGATION_H
