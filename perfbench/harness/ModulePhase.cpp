//===- perfbench/harness/ModulePhase.cpp - Module-scale analysis ----------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The `module` phase: a generated 3-layer module (makeSyntheticModule,
// seeded from the command line) compiled and analyzed cold and
// interprocedurally at 1,000 functions (part `small`) and at 2,000
// functions, then re-analyzed incrementally after K=10 of the 2,000
// functions change (part `large`). perfbench/run.py runs each part in a
// fresh process and derives module_scaling_exp, log2 of the cold-time
// ratio between the two sizes (1.0 = linear).
//
// Output check: the incremental result must serialize byte-for-byte like
// a cold analysis of the same mutated module.
//
// The traced variant compiles stage by stage and adds probes of the
// alias layer (AliasInfo::analyze and environmentText on every function).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Stages.h"

#include "analysis/AliasAnalysis.h"
#include "analysis/PersistentCache.h"
#include "benchsuite/Synthetic.h"
#include "driver/Pipeline.h"

using namespace perfbench;
using namespace vrp;

namespace {

constexpr unsigned Mutated = 10;

VRPOptions moduleOpts() {
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Threads = 1;
  return Opts;
}

/// The part's module, and its mutated version (large part only).
struct Inputs {
  std::string Base, Changed;
};

Inputs makeInputs(unsigned Functions, bool Mutate, uint64_t Seed) {
  SyntheticModuleConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.Layers = 3;
  Cfg.NumFunctions = Functions;
  Inputs In;
  In.Base = makeSyntheticModule(Cfg);
  if (Mutate) {
    Cfg.MutateCount = Mutated;
    In.Changed = makeSyntheticModule(Cfg);
  }
  return In;
}

/// FNV-1a over every function's exact result serialization, module order.
uint64_t fingerprint(const Module &M, const ModuleVRPResult &R) {
  uint64_t H = HashBasis;
  for (const auto &F : M.functions())
    if (const FunctionVRPResult *FR = R.forFunction(F.get()))
      H = hashString(H, PersistentCache::serialize(*FR));
  return H;
}

} // namespace

int perfbench::runModulePhase(const PhaseOptions &P) {
  Report Rep("module");
  const bool Large = P.Part != "small";
  const unsigned Functions = Large ? (P.Smoke ? 200 : 2000)
                                   : (P.Smoke ? 100 : 1000);
  const VRPOptions Opts = moduleOpts();

  // Set-up: generate the inputs and warm the process (allocator, interned
  // constants) on a small module before the first timed compile.
  Series Setup;
  Inputs In;
  for (unsigned I = 0; I < 5; ++I) {
    double T0 = nowSeconds();
    In = makeInputs(Functions, Large, P.Seed);
    SyntheticModuleConfig Warm;
    Warm.NumFunctions = 100;
    Warm.Seed = P.Seed;
    Warm.Layers = 3;
    DiagnosticEngine Diags;
    if (auto C = compileProgram(makeSyntheticModule(Warm), Diags, Opts);
        C.ok())
      (void)runModuleVRP(*C.value()->IR, Opts);
    Setup.add(since(T0));
  }

  // One pass per process: repeated analyses in one process get slower as
  // process-wide state grows, so a second pass would not measure the
  // same thing as the first. The traced variant replaces the pass.
  Tracer T;
  Tracer *Tr = P.Trace ? &T : nullptr;
  std::string Error;
  FrontEndSizes Sizes;
  auto compile = [&](const std::string &Source, uint64_t Request)
      -> std::unique_ptr<CompiledProgram> {
    if (Tr)
      return compileTraced(*Tr, Source, Opts, Request, Sizes, Error);
    DiagnosticEngine Diags;
    auto C = compileProgram(Source, Diags, Opts);
    if (C.ok())
      return std::move(C.value());
    Error = C.error().str();
    return nullptr;
  };
  auto traced = [&](const char *Span, uint64_t Request, auto &&Run) {
    if (!Tr)
      return Run();
    Tracer::Scope S(*Tr, Span, Request);
    return Run();
  };
  auto failed = [&] {
    Rep.check("module.compiles", false, Error);
    Rep.emit();
    return 1;
  };

  // Request ids: 1 = the module, 2 = its mutated version.
  const double PassStart = nowSeconds();
  auto C = compile(In.Base, 1);
  if (!C)
    return failed();
  ModuleVRPResult R = traced("interproc.run_module", 1,
                             [&] { return runModuleVRP(*C->IR, Opts); });
  const double Cold = since(PassStart);
  const double Fns = C->IR->functions().size();
  const FrontEndSizes BaseSizes = Sizes;
  if (Tr)
    // Alias-layer probes: the census every function's alias summary and
    // cache key are built from.
    for (const auto &F : C->IR->functions()) {
      {
        Tracer::Scope S(T, "alias.analyze", 1, /*Extra=*/true);
        (void)AliasInfo::analyze(*F);
      }
      Tracer::Scope S(T, "alias.envtext", 1, /*Extra=*/true);
      (void)AliasInfo::environmentText(*F);
    }
  Rep.attempt(1, R.FunctionsDegraded > 0);

  ModuleVRPResult RI;
  double Incr = 0.0;
  std::unique_ptr<CompiledProgram> CI;
  if (Large) {
    const double T0 = nowSeconds();
    CI = compile(In.Changed, 2);
    if (!CI)
      return failed();
    RI = traced("interproc.run_incremental", 2, [&] {
      return runModuleVRPIncremental(*CI->IR, Opts, *C->IR, R);
    });
    Incr = since(T0);
    Rep.attempt(1, RI.FunctionsDegraded > 0);
  }
  const double PassWall = since(PassStart);
  const double Rss = peakRssMb();

  if (Large && P.Verify) {
    // The reference: a cold analysis of the same mutated module.
    const uint64_t Fp = fingerprint(*CI->IR, RI);
    const uint64_t ColdFp = fingerprint(*CI->IR, runModuleVRP(*CI->IR, Opts));
    Rep.check("module.incremental_equals_cold", Fp == ColdFp,
              "incremental " + hex64(Fp) + ", cold " + hex64(ColdFp));
    Rep.check("module.cone_is_partial",
              RI.FunctionsReanalyzed >= Mutated &&
                  RI.FunctionsReanalyzed < Functions,
              std::to_string(RI.FunctionsReanalyzed) + " of " +
                  std::to_string(Functions) + " functions re-analyzed");
  }

  Rep.series("setup_s", "s", Setup);
  Rep.value("peak_rss_mb", "MB", Rss);
  Rep.value(Large ? "module_cold_s" : "module_cold_small_s", "s", Cold);
  if (Large)
    Rep.value("module_incr_s", "s", Incr);
  if (!Tr) {
    Rep.wall("pass_s", PassWall);
    Rep.emit();
    return Rep.allChecksPassed() ? 0 : 1;
  }

  const std::string Size = Large ? "_2k" : "_1k";
  Rep.layer("alias.analyze_us_per_fn" + Size, "us/fn",
            T.total("alias.analyze") * 1e6 / Fns);
  Rep.layer("alias.envtext_us_per_fn" + Size, "us/fn",
            T.total("alias.envtext") * 1e6 / Fns);
  if (Large) {
    const double KInst = BaseSizes.SSAInstructions / 1e3;
    Rep.layer("lang.us_per_kb", "us/KB",
              (T.total("lang.parse", 1) + T.total("lang.sema", 1)) * 1e6 /
                  (BaseSizes.SourceBytes / 1024.0));
    Rep.layer("irgen.us_per_kinst", "us/kinst",
              T.total("irgen.generate", 1) * 1e6 /
                  (BaseSizes.IRInstructions / 1e3));
    Rep.layer("ssa.us_per_kinst", "us/kinst",
              (T.total("ssa.construct", 1) + T.total("ssa.assert", 1)) *
                  1e6 / KInst);
    Rep.layer("ssa.verify_us_per_kinst", "us/kinst",
              T.total("ssa.verify", 1) * 1e6 / KInst);
    Rep.layer("interproc.us_per_fn_cold", "us/fn",
              T.total("interproc.run_module") * 1e6 / Fns);
    Rep.layer("interproc.us_per_fn_incr", "us/fn",
              T.total("interproc.run_incremental") * 1e6 / Fns);
    Rep.layer("interproc.waves", "count", R.Waves);
    Rep.layer("interproc.sweeps", "count", R.Rounds);
    Rep.layer("interproc.reanalyzed_ratio", "ratio",
              RI.FunctionsReanalyzed / Fns);
  }
  Rep.wall("traced_s", PassWall);
  Rep.wall("extra_s", T.extraTime(PassStart));
  Rep.wall("covered_s", layerCoverage(T, PassStart, PassWall) * PassWall);
  Rep.selfTimes(T.selfByLayer());
  T.write(P.WorkDir + "/trace-module-" + P.Part + ".jsonl");
  Rep.emit();
  return Rep.allChecksPassed() ? 0 : 1;
}
