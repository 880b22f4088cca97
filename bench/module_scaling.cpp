//===- bench/module_scaling.cpp - Whole-module scheduler scaling ----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Two claims about the SCC-wave interprocedural scheduler
// (interproc/InterproceduralVRP.cpp), measured single-threaded on
// generated modules (benchsuite/Synthetic.h):
//
//  1. Linearity at module scale: expression evaluations per function stay
//     flat as the module grows to 10^4 functions (10^5 with
//     VRP_MODULE_SCALING_FULL=1) — the whole-module analog of the paper's
//     Figure 5 — and so does time: µs per function, the time growth
//     t(4N)/t(N) over each 4x step, and the cost of load aliasing as the
//     ratio of the alias-on to the alias-off time at each size.
//  2. Incremental re-analysis: after mutating K functions, re-analysis
//     from the previous result visits only the invalidated cone and —
//     on a depth-bounded module, where the refinement converges inside
//     the per-function budget — reproduces the cold result bit for bit.
//
// Emits BENCH_module_scaling.json; exits nonzero if the incremental
// fingerprint diverges from cold or if the alias-on/off ratio exceeds
// MaxAliasRatio at any size. docs/SCALING.md explains how to read the
// numbers.
//
//===----------------------------------------------------------------------===//

#include "analysis/PersistentCache.h"
#include "benchsuite/Synthetic.h"
#include "driver/Pipeline.h"
#include "support/Format.h"
#include "support/ResultStore.h"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

using namespace vrp;

namespace {

constexpr unsigned Threads = 1;
/// Load aliasing is a per-function pass over a per-module census: at
/// any size it may cost at most this factor over the alias-off run.
constexpr double MaxAliasRatio = 1.5;

double wallSeconds(std::chrono::steady_clock::time_point Start,
                   std::chrono::steady_clock::time_point End) {
  return std::chrono::duration<double>(End - Start).count();
}

VRPOptions interprocOpts(bool Alias = true) {
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Threads = Threads;
  Opts.EnableAliasRanges = Alias;
  return Opts;
}

std::unique_ptr<CompiledProgram> compileCfg(const SyntheticModuleConfig &Cfg) {
  DiagnosticEngine Diags;
  auto C = compileProgram(makeSyntheticModule(Cfg), Diags, interprocOpts());
  if (!C.ok()) {
    std::cerr << "generator program rejected: " << C.error().str() << "\n";
    std::exit(1);
  }
  return std::move(C.value());
}

/// FNV-1a over every function's exact result serialization, module order.
uint64_t fingerprint(const Module &M, const ModuleVRPResult &R) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (const auto &F : M.functions())
    if (const FunctionVRPResult *FR = R.forFunction(F.get()))
      H = store::fnv1a64(PersistentCache::serialize(*FR), H);
  return H;
}

struct CurvePoint {
  unsigned Functions = 0;
  double Seconds = 0.0;
  double UsPerFunction = 0.0;
  double AliasOffSeconds = 0.0;
  double AliasRatio = 0.0;
  uint64_t ExprEvals = 0;
  uint64_t SubOps = 0;
  double EvalsPerFunction = 0.0;
  unsigned Waves = 0;
  unsigned Sweeps = 0;
};

struct IncrementalPoint {
  unsigned Mutated = 0;
  unsigned Cone = 0;
  double ColdSeconds = 0.0;
  double IncrementalSeconds = 0.0;
  double Speedup = 1.0;
  bool Identical = false;
};

} // namespace

int main() {
  const bool Full = std::getenv("VRP_MODULE_SCALING_FULL") != nullptr;

  // --- Phase 1: linearity curve over deep-DAG modules -------------------
  // Doubling sizes, so each size two rows up closes a 4x step (the
  // full sweep's last row has no 4x partner).
  std::vector<unsigned> Sizes = {1250, 2500, 5000, 10000};
  if (Full) {
    Sizes.push_back(20000);
    Sizes.push_back(40000);
    Sizes.push_back(100000);
  }

  std::cout << "==== Whole-module scheduler scaling ====\n\n"
            << "threads: " << Threads << (Full ? " (full sweep)" : "")
            << "\n\n";

  // Warm the interned-constant pool and allocator outside the timings.
  {
    SyntheticModuleConfig Warm;
    Warm.NumFunctions = 100;
    auto C = compileCfg(Warm);
    (void)runModuleVRP(*C->IR, interprocOpts());
  }

  std::vector<CurvePoint> Curve;
  bool AliasCheap = true;
  for (unsigned N : Sizes) {
    SyntheticModuleConfig Cfg;
    Cfg.NumFunctions = N;
    Cfg.Seed = 7;
    auto C = compileCfg(Cfg); // Generation + compilation are untimed.
    auto timed = [&](bool Alias, ModuleVRPResult &R) {
      auto Start = std::chrono::steady_clock::now();
      R = runModuleVRP(*C->IR, interprocOpts(Alias));
      return wallSeconds(Start, std::chrono::steady_clock::now());
    };
    // Alias on first: the first analysis of a module also interns its
    // constants and ranges into the process-wide arena, which the second
    // one reuses, so the gated alias-on run is the one that pays for it.
    ModuleVRPResult R, Off;
    CurvePoint P;
    P.Functions = static_cast<unsigned>(C->IR->functions().size());
    P.Seconds = timed(true, R);
    P.UsPerFunction = P.Seconds * 1e6 / P.Functions;
    P.AliasOffSeconds = timed(false, Off);
    P.AliasRatio = P.Seconds / P.AliasOffSeconds;
    AliasCheap = AliasCheap && P.AliasRatio <= MaxAliasRatio;
    P.ExprEvals = R.Total.ExprEvaluations;
    P.SubOps = R.Total.SubOps;
    P.EvalsPerFunction = static_cast<double>(P.ExprEvals) / P.Functions;
    P.Waves = R.Waves;
    P.Sweeps = R.Rounds;
    Curve.push_back(P);
  }

  TextTable CurveTable({"functions", "seconds", "us/fn", "alias on/off",
                        "expr evals", "evals/fn", "waves", "sweeps"});
  for (const CurvePoint &P : Curve)
    CurveTable.addRow({std::to_string(P.Functions),
                       formatDouble(P.Seconds, 3),
                       formatDouble(P.UsPerFunction, 1),
                       formatDouble(P.AliasRatio, 2) + "x",
                       std::to_string(P.ExprEvals),
                       formatDouble(P.EvalsPerFunction, 1),
                       std::to_string(P.Waves), std::to_string(P.Sweeps)});
  CurveTable.print(std::cout);

  // Time growth over each 4x step of module size: 4.0 is linear.
  struct Growth {
    unsigned From = 0, To = 0;
    double TimeRatio = 0.0, EvalRatio = 0.0;
  };
  std::vector<Growth> Growths;
  for (size_t I = 0; I + 2 < Curve.size(); ++I)
    if (Sizes[I + 2] == 4 * Sizes[I])
      Growths.push_back({Curve[I].Functions, Curve[I + 2].Functions,
                         Curve[I + 2].Seconds / Curve[I].Seconds,
                         static_cast<double>(Curve[I + 2].ExprEvals) /
                             static_cast<double>(Curve[I].ExprEvals)});
  std::cout << "\n";
  for (const Growth &G : Growths)
    std::cout << "t(" << G.To << ")/t(" << G.From
              << ") = " << formatDouble(G.TimeRatio, 2) << " (expr evals "
              << formatDouble(G.EvalRatio, 2) << "x)\n";
  std::cout << "alias on/off "
            << (AliasCheap ? "within " : "ABOVE ")
            << formatDouble(MaxAliasRatio, 1) << "x at every size\n";

  // --- Phase 2: cold vs incremental after mutating K functions ----------
  // Depth-bounded (layered) module: the refinement converges inside the
  // per-function budget, which is the precondition for bitwise
  // cold-vs-incremental identity (see docs/SCALING.md).
  SyntheticModuleConfig Base;
  Base.NumFunctions = Full ? 20000 : 5000;
  Base.Seed = 7;
  Base.Layers = 3;
  auto Prev = compileCfg(Base);
  ModuleVRPResult PrevR = runModuleVRP(*Prev->IR, interprocOpts());

  std::cout << "\nincremental re-analysis, " << Base.NumFunctions
            << " functions, depth-bounded to " << Base.Layers
            << " layers:\n\n";

  std::vector<IncrementalPoint> Incr;
  bool AllIdentical = true;
  for (unsigned K : {1u, 10u, 100u}) {
    SyntheticModuleConfig Mut = Base;
    Mut.MutateCount = K;
    auto Next = compileCfg(Mut);

    auto ColdStart = std::chrono::steady_clock::now();
    ModuleVRPResult Cold = runModuleVRP(*Next->IR, interprocOpts());
    auto ColdEnd = std::chrono::steady_clock::now();

    auto IncStart = std::chrono::steady_clock::now();
    ModuleVRPResult Inc = runModuleVRPIncremental(*Next->IR, interprocOpts(),
                                                  *Prev->IR, PrevR);
    auto IncEnd = std::chrono::steady_clock::now();

    IncrementalPoint P;
    P.Mutated = K;
    P.Cone = Inc.FunctionsReanalyzed;
    P.ColdSeconds = wallSeconds(ColdStart, ColdEnd);
    P.IncrementalSeconds = wallSeconds(IncStart, IncEnd);
    P.Speedup = P.IncrementalSeconds > 0
                    ? P.ColdSeconds / P.IncrementalSeconds
                    : 1.0;
    P.Identical = fingerprint(*Next->IR, Inc) == fingerprint(*Next->IR, Cold);
    AllIdentical = AllIdentical && P.Identical && P.Cone >= K &&
                   P.Cone < Base.NumFunctions;
    Incr.push_back(P);
  }

  TextTable IncrTable({"mutated", "cone", "cold s", "incremental s",
                       "speedup", "results"});
  for (const IncrementalPoint &P : Incr)
    IncrTable.addRow({std::to_string(P.Mutated), std::to_string(P.Cone),
                      formatDouble(P.ColdSeconds, 3),
                      formatDouble(P.IncrementalSeconds, 3),
                      formatDouble(P.Speedup, 1) + "x",
                      P.Identical ? "identical" : "DIVERGED"});
  IncrTable.print(std::cout);
  std::cout << "\nincremental results "
            << (AllIdentical ? "match cold bit-for-bit"
                             : "DIVERGED from cold (BUG)")
            << "\n";

  std::ofstream Json("BENCH_module_scaling.json");
  Json << "{\n  \"bench\": \"module_scaling\",\n"
       << "  \"threads\": " << Threads << ",\n"
       << "  \"full_sweep\": " << (Full ? "true" : "false") << ",\n"
       << "  \"linearity\": [\n";
  for (size_t I = 0; I < Curve.size(); ++I) {
    const CurvePoint &P = Curve[I];
    Json << "    {\"functions\": " << P.Functions
         << ", \"seconds\": " << formatDouble(P.Seconds, 6)
         << ", \"us_per_function\": " << formatDouble(P.UsPerFunction, 2)
         << ", \"alias_off_seconds\": " << formatDouble(P.AliasOffSeconds, 6)
         << ", \"alias_on_off_ratio\": " << formatDouble(P.AliasRatio, 3)
         << ", \"expr_evaluations\": " << P.ExprEvals
         << ", \"subrange_ops\": " << P.SubOps
         << ", \"evals_per_function\": "
         << formatDouble(P.EvalsPerFunction, 3)
         << ", \"waves\": " << P.Waves << ", \"sweeps\": " << P.Sweeps
         << "}" << (I + 1 < Curve.size() ? "," : "") << "\n";
  }
  Json << "  ],\n  \"max_alias_on_off_ratio\": "
       << formatDouble(MaxAliasRatio, 1) << ",\n  \"growth_4x\": [\n";
  for (size_t I = 0; I < Growths.size(); ++I) {
    const Growth &G = Growths[I];
    Json << "    {\"from\": " << G.From << ", \"to\": " << G.To
         << ", \"time_ratio\": " << formatDouble(G.TimeRatio, 3)
         << ", \"expr_eval_ratio\": " << formatDouble(G.EvalRatio, 3) << "}"
         << (I + 1 < Growths.size() ? "," : "") << "\n";
  }
  Json << "  ],\n  \"incremental\": {\n    \"functions\": "
       << Base.NumFunctions << ",\n    \"layers\": " << Base.Layers
       << ",\n    \"runs\": [\n";
  for (size_t I = 0; I < Incr.size(); ++I) {
    const IncrementalPoint &P = Incr[I];
    Json << "      {\"mutated\": " << P.Mutated << ", \"cone\": " << P.Cone
         << ", \"cold_seconds\": " << formatDouble(P.ColdSeconds, 6)
         << ", \"incremental_seconds\": "
         << formatDouble(P.IncrementalSeconds, 6)
         << ", \"speedup_incremental_vs_cold\": "
         << formatDouble(P.Speedup, 4) << ", \"results_identical\": "
         << (P.Identical ? "true" : "false") << "}"
         << (I + 1 < Incr.size() ? "," : "") << "\n";
  }
  Json << "    ]\n  }\n}\n";
  std::cout << "\nwrote BENCH_module_scaling.json\n";
  return AllIdentical && AliasCheap ? 0 : 1;
}
