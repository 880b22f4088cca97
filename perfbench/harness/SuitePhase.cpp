//===- perfbench/harness/SuitePhase.cpp - The paper's §5 experiment -------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The `suite` phase: the 19 built-in programs under the §5 protocol
// (evaluateSuite, threads=1). Each pass runs a cold evaluation against an
// empty persistent cache, times re-opening the populated store (set-up),
// and runs a warm evaluation that restores from it. The non-timing
// outcome of both passes must be bitwise equal and equal the reference
// fingerprint below.
//
// The traced variant replays the protocol one layer call at a time
// (front end, interpreter, propagation, heuristics, finalization, error
// metrics) with a span around each, plus a soundness audit and cache-key
// probes, and requires the replay's curves to match evaluateSuite's bit
// for bit.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Stages.h"

#include "analysis/PersistentCache.h"
#include "benchsuite/Programs.h"
#include "eval/SuiteRunner.h"
#include "profile/ProfilePredictor.h"
#include "vrp/Audit.h"

#include <cstdio>
#include <cstring>
#include <functional>

using namespace perfbench;
using namespace vrp;

namespace {

/// fingerprint() of the suite evaluation at the commit that defined this
/// benchmark. A change here means the analyzer's predictions changed:
/// update it only together with an explanation of why they should.
constexpr uint64_t ReferenceFingerprint = 0x2d18e60272fa4b57ULL;

uint64_t hashCdf(uint64_t H, const ErrorCdf &C) {
  for (double V : C.rawState())
    H = hashDouble(H, V);
  return H;
}

/// Every non-timing outcome of a suite evaluation.
uint64_t fingerprint(const SuiteEvaluation &S) {
  uint64_t H = HashBasis;
  for (const BenchmarkEvaluation &B : S.Benchmarks) {
    H = hashString(H, B.Name);
    H = hashU64(H, B.Ok);
    H = hashU64(H, B.DegradedFunctions);
    H = hashU64(H, B.RefSteps);
    H = hashU64(H, B.StaticBranches);
    H = hashU64(H, B.ExecutedBranches);
    H = hashDouble(H, B.VRPRangeFraction);
    H = hashU64(H, B.VRP.RangePredictedBranches);
    H = hashU64(H, B.VRP.HeuristicBranches);
    H = hashU64(H, B.VRP.UnreachableBranches);
    H = hashU64(H, B.VRP.Ranges.ExprEvaluations);
    H = hashU64(H, B.VRP.Ranges.SubOps);
    H = hashU64(H, B.Cache.Hits);
    H = hashU64(H, B.Cache.Misses);
    for (const auto &[Kind, Curves] : B.Curves) {
      H = hashU64(H, static_cast<uint64_t>(Kind));
      H = hashCdf(H, Curves.first);
      H = hashCdf(H, Curves.second);
    }
  }
  for (PredictorKind Kind : allPredictors())
    for (const auto *Avg : {&S.AveragedUnweighted, &S.AveragedWeighted}) {
      const ErrorCdf &C = Avg->at(Kind);
      for (unsigned I = 0; I < ErrorCdf::NumBuckets; ++I)
        H = hashDouble(H, C.fractionWithin(I));
      H = hashDouble(H, C.meanError());
    }
  return H;
}

uint64_t failedBenchmarks(const SuiteEvaluation &S) {
  uint64_t N = 0;
  for (const BenchmarkEvaluation &B : S.Benchmarks)
    if (!B.Ok || B.DegradedFunctions > 0)
      ++N;
  return N;
}

/// What the traced replay produced and counted.
struct Replay {
  std::vector<std::map<PredictorKind, std::pair<ErrorCdf, ErrorCdf>>> Curves;
  std::map<PredictorKind, ErrorCdf> AvgUnweighted, AvgWeighted;
  std::string Error;
  uint64_t Steps = 0;
  RangeStats Ranges;
  uint64_t FinalBranches = 0, FallbackBranches = 0;
  uint64_t AuditChecks = 0, Violations = 0;
  uint64_t PayloadBytes = 0;
  FrontEndSizes Sizes;
};

/// propagateRanges over every function with ⊥ context — what
/// runModuleVRP does for an intraprocedural configuration.
std::map<const Function *, FunctionVRPResult>
propagateModule(Tracer &T, const Module &M, const VRPOptions &Opts,
                AnalysisCache &Cache, uint64_t Request, Replay &Out) {
  PropagationContext Ctx;
  Ctx.ParamRange = [](const Param *) { return ValueRange::bottom(); };
  Ctx.CallResultRange = [](const CallInst *) { return ValueRange::bottom(); };
  Ctx.Cache = &Cache;
  std::map<const Function *, FunctionVRPResult> Results;
  for (const auto &F : M.functions()) {
    Tracer::Scope S(T, "vrp.propagate", Request);
    FunctionVRPResult R = propagateRanges(*F, Opts, Ctx);
    Out.Ranges += R.Stats;
    if (R.Degraded && Out.Error.empty())
      Out.Error = "@" + F->name() + " degraded";
    Results.emplace(F.get(), std::move(R));
  }
  return Results;
}

/// One program of the §5 protocol, mirroring evaluateProgram with the
/// default options and no persistent cache.
void replayProgram(Tracer &T, const BenchmarkProgram &P,
                   const VRPOptions &Opts, uint64_t Request, Replay &Out,
                   std::map<PredictorKind, std::pair<ErrorCdf, ErrorCdf>>
                       &Curves) {
  Tracer::Scope Bench(T, "bench.program", Request);
  std::string Error;
  auto Compiled = compileTraced(T, P.Source, Opts, Request, Out.Sizes, Error);
  if (!Compiled) {
    Out.Error = P.Name + ": " + Error;
    return;
  }
  Module &M = *Compiled->IR;
  const uint64_t MaxSteps = 200'000'000;

  Interpreter Interp(M);
  EdgeProfile RefProfile, TrainProfile;
  ExecutionResult RefRun, TrainRun;
  {
    Tracer::Scope S(T, "profile.run", Request);
    RefRun = Interp.run(P.RefInput, &RefProfile, MaxSteps);
  }
  {
    Tracer::Scope S(T, "profile.run", Request);
    TrainRun = Interp.run(P.ShortInput, &TrainProfile, MaxSteps);
  }
  if (!RefRun.Ok || !TrainRun.Ok) {
    Out.Error = P.Name + ": interpreter: " + RefRun.Error + TrainRun.Error;
    return;
  }
  Out.Steps += RefRun.Steps + TrainRun.Steps;

  AnalysisCache Cache;
  auto VRP = propagateModule(T, M, Opts, Cache, Request, Out);

  auto BallLarus = [](const Function &Fn, const LoopInfo &LI,
                      const PostDominatorTree &PDT, const DFSInfo &DFS) {
    return predictBallLarus(Fn, LI, PDT, DFS);
  };
  for (const auto &F : M.functions()) {
    Tracer::Scope S(T, "heuristics.ball_larus", Request);
    Cache.branchProbs(*F, BallLarus);
  }

  BranchProbMap VRPProbs;
  for (const auto &F : M.functions()) {
    FinalPredictionMap Final;
    {
      Tracer::Scope S(T, "driver.finalize", Request);
      Final = finalizePredictions(*F, VRP.at(F.get()), &Cache);
    }
    for (const auto &[Branch, Pred] : Final) {
      VRPProbs[Branch] = Pred.ProbTrue;
      ++Out.FinalBranches;
      if (Pred.Source == PredictionSource::Heuristic)
        ++Out.FallbackBranches;
    }
  }

  // Soundness sentinel: the interpreter replays the reference input and
  // checks every value observed at a branch against its computed range.
  {
    Tracer::Scope S(T, "vrp.audit", Request, /*Extra=*/true);
    audit::RangeAuditor Auditor;
    for (const auto &F : M.functions())
      Auditor.addFunction(*F, VRP.at(F.get()));
    Interp.run(P.RefInput, nullptr, MaxSteps, &Auditor);
    audit::AuditReport Report = Auditor.takeReport();
    Out.AuditChecks += Report.totalChecks();
    Out.Violations += Report.totalViolations();
  }

  // Persistent-cache probes: the key and record this run would store.
  {
    PropagationContext Ctx = PropagationContext::intraprocedural();
    Ctx.Cache = &Cache;
    for (const auto &F : M.functions()) {
      {
        Tracer::Scope S(T, "pcache.make_key", Request, /*Extra=*/true);
        (void)PersistentCache::makeKey(*F, Opts, Ctx);
      }
      Tracer::Scope S(T, "pcache.serialize", Request, /*Extra=*/true);
      Out.PayloadBytes += PersistentCache::serialize(VRP.at(F.get())).size();
    }
  }

  uint64_t Seed = 0xC0FFEE ^ std::hash<std::string>{}(P.Name);
  for (PredictorKind Kind : allPredictors()) {
    BranchProbMap Probs;
    switch (Kind) {
    case PredictorKind::Profiling: {
      Tracer::Scope S(T, "profile.predict", Request);
      for (const auto &F : M.functions()) {
        BranchProbMap Per = predictFromProfile(*F, TrainProfile);
        Probs.insert(Per.begin(), Per.end());
      }
      break;
    }
    case PredictorKind::BallLarus: {
      Tracer::Scope S(T, "heuristics.lookup", Request);
      for (const auto &F : M.functions()) {
        const BranchProbMap &Per = Cache.branchProbs(*F, BallLarus);
        Probs.insert(Per.begin(), Per.end());
      }
      break;
    }
    case PredictorKind::VRP:
      Probs = VRPProbs;
      break;
    case PredictorKind::VRPNumeric: {
      VRPOptions Numeric = Opts;
      Numeric.EnableSymbolicRanges = false;
      auto NumVRP = propagateModule(T, M, Numeric, Cache, Request, Out);
      for (const auto &F : M.functions()) {
        Tracer::Scope S(T, "driver.finalize", Request);
        for (const auto &[Branch, Pred] :
             finalizePredictions(*F, NumVRP.at(F.get()), &Cache))
          Probs[Branch] = Pred.ProbTrue;
      }
      break;
    }
    case PredictorKind::NinetyFifty: {
      Tracer::Scope S(T, "heuristics.ninety_fifty", Request);
      for (const auto &F : M.functions()) {
        BranchProbMap Per = predictNinetyFifty(*F);
        Probs.insert(Per.begin(), Per.end());
      }
      break;
    }
    case PredictorKind::Random: {
      Tracer::Scope S(T, "heuristics.random", Request);
      uint64_t RandomSeed = Seed;
      for (const auto &F : M.functions()) {
        BranchProbMap Per = predictRandom(*F, RandomSeed++);
        Probs.insert(Per.begin(), Per.end());
      }
      break;
    }
    }
    Tracer::Scope S(T, "eval.errors", Request);
    std::vector<BranchErrorSample> Samples = computeErrors(Probs, RefProfile);
    ErrorCdf Unweighted, Weighted;
    Unweighted.addSamples(Samples, /*Weighted=*/false);
    Weighted.addSamples(Samples, /*Weighted=*/true);
    Curves[Kind] = {Unweighted, Weighted};
  }
}

Replay replaySuite(Tracer &T,
                   const std::vector<const BenchmarkProgram *> &Programs,
                   const VRPOptions &Opts) {
  Replay Out;
  Out.Curves.resize(Programs.size());
  for (size_t I = 0; I < Programs.size() && Out.Error.empty(); ++I)
    replayProgram(T, *Programs[I], Opts, I + 1, Out, Out.Curves[I]);
  Tracer::Scope S(T, "eval.average", 0);
  for (PredictorKind Kind : allPredictors()) {
    std::vector<ErrorCdf> Unweighted, Weighted;
    for (const auto &Curves : Out.Curves) {
      auto It = Curves.find(Kind);
      if (It == Curves.end())
        continue;
      Unweighted.push_back(It->second.first);
      Weighted.push_back(It->second.second);
    }
    Out.AvgUnweighted[Kind] = ErrorCdf::average(Unweighted);
    Out.AvgWeighted[Kind] = ErrorCdf::average(Weighted);
  }
  return Out;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(A)) == 0;
}

/// Bitwise equality: the accumulator state of per-benchmark CDFs, the
/// derived fractions and mean of averaged ones.
bool sameCdf(const ErrorCdf &A, const ErrorCdf &B, bool Averaged) {
  if (!Averaged) {
    auto SA = A.rawState(), SB = B.rawState();
    return std::memcmp(SA.data(), SB.data(), sizeof(SA)) == 0;
  }
  for (unsigned I = 0; I < ErrorCdf::NumBuckets; ++I)
    if (!sameBits(A.fractionWithin(I), B.fractionWithin(I)))
      return false;
  return sameBits(A.meanError(), B.meanError());
}

/// First difference between the replay and evaluateSuite, or "".
std::string compareReplay(const Replay &R, const SuiteEvaluation &S) {
  if (!R.Error.empty())
    return R.Error;
  for (size_t I = 0; I < S.Benchmarks.size(); ++I)
    for (const auto &[Kind, Curves] : S.Benchmarks[I].Curves) {
      auto It = R.Curves[I].find(Kind);
      if (It == R.Curves[I].end() ||
          !sameCdf(It->second.first, Curves.first, false) ||
          !sameCdf(It->second.second, Curves.second, false))
        return S.Benchmarks[I].Name + " / " + predictorName(Kind);
    }
  for (PredictorKind Kind : allPredictors())
    if (!sameCdf(R.AvgUnweighted.at(Kind), S.AveragedUnweighted.at(Kind),
                 true) ||
        !sameCdf(R.AvgWeighted.at(Kind), S.AveragedWeighted.at(Kind), true))
      return std::string("suite average / ") + predictorName(Kind);
  return "";
}

} // namespace

int perfbench::runSuitePhase(const PhaseOptions &P) {
  Report Rep("suite");
  std::vector<const BenchmarkProgram *> Programs = allPrograms();
  VRPOptions Opts;
  Opts.Threads = 1;
  SuiteRunConfig Config;
  Config.CachePath = P.WorkDir + "/suite.pcache";
  const unsigned MinPasses = P.Smoke ? 1 : 10;
  const unsigned OpensPerPass = 5;

  Series Setup, Cold, Warm;
  uint64_t ColdFp = 0, WarmFp = 0;
  bool AllEqual = true, AllWarmHits = true;
  double WarmHitRatio = 0.0;
  SuiteEvaluation First;
  const double Start = nowSeconds();
  double LastPass = 0.0;
  for (unsigned Pass = 0;
       Pass < MinPasses || since(Start) + LastPass <= P.Seconds; ++Pass) {
    const double PassStart = nowSeconds();
    std::remove(Config.CachePath.c_str());

    double T0 = nowSeconds();
    SuiteEvaluation C = evaluateSuite(Programs, Opts, Config);
    Cold.add(since(T0));

    // Set-up: open the populated store and replay its records, as the
    // warm pass (and any later cached run) must before its first unit
    // of work. The store is single-writer, so each open is released
    // before the next.
    for (unsigned I = 0; I < OpensPerPass; ++I) {
      T0 = nowSeconds();
      std::unique_ptr<PersistentCache> PC =
          PersistentCache::open(Config.CachePath, /*Verify=*/false);
      Setup.add(since(T0));
      if (!PC)
        Rep.check("suite.store_opens", false, "cannot open the store");
    }

    T0 = nowSeconds();
    SuiteEvaluation W = evaluateSuite(Programs, Opts, Config);
    Warm.add(since(T0));

    uint64_t CFp = fingerprint(C), WFp = fingerprint(W);
    AllEqual = AllEqual && CFp == WFp && (Pass == 0 || CFp == ColdFp);
    ColdFp = CFp;
    WarmFp = WFp;
    AllWarmHits = AllWarmHits && W.PCache.Hits > 0 && W.PCache.Misses == 0;
    WarmHitRatio = static_cast<double>(W.PCache.Hits) /
                   std::max<uint64_t>(1, W.PCache.Hits + W.PCache.Misses);
    Rep.attempt(2 * Programs.size(),
                failedBenchmarks(C) + failedBenchmarks(W));
    if (Pass == 0)
      First = std::move(C);
    LastPass = since(PassStart);
  }
  std::remove(Config.CachePath.c_str());

  Rep.check("suite.cold_equals_warm", AllEqual,
            "cold " + hex64(ColdFp) + ", warm " + hex64(WarmFp));
  Rep.check("suite.matches_reference", ColdFp == ReferenceFingerprint,
            "got " + hex64(ColdFp) + ", reference " +
                hex64(ReferenceFingerprint));
  Rep.check("suite.warm_pass_restores", AllWarmHits,
            "warm pass must be served from the store");

  Rep.series("setup_s", "s", Setup);
  Rep.series("suite_cold_s", "s/pass", Cold);
  Rep.series("suite_warm_s", "s/pass", Warm);
  Rep.value("vrp_err_pp", "pp",
            First.AveragedUnweighted.at(PredictorKind::VRP).meanError());
  Rep.value("vrp_err_wtd_pp", "pp",
            First.AveragedWeighted.at(PredictorKind::VRP).meanError());
  Rep.value("peak_rss_mb", "MB", peakRssMb());

  if (P.Trace) {
    // The untraced program the replay mirrors (no store attached).
    double T0 = nowSeconds();
    SuiteEvaluation Base = evaluateSuite(Programs, Opts);
    const double BaseWall = since(T0);

    Tracer T;
    const double TStart = nowSeconds();
    Replay R = replaySuite(T, Programs, Opts);
    const double TracedWall = since(TStart);
    std::string Diff = compareReplay(R, Base);
    Rep.check("suite.replay_matches_evaluate", Diff.empty(),
              Diff.empty() ? "curves bitwise equal" : "differs at " + Diff);
    Rep.check("suite.audit_clean", R.Violations == 0 && R.AuditChecks > 0,
              std::to_string(R.Violations) + " violations in " +
                  std::to_string(R.AuditChecks) + " checks");

    auto per = [](double Seconds, double Units, double Scale) {
      return Units > 0 ? Seconds * Scale / Units : 0.0;
    };
    const double Propagate = T.total("vrp.propagate");
    const double Calls = static_cast<double>(T.count("vrp.propagate"));
    Rep.layer("vrp.propagate_us_per_fn", "us/fn", per(Propagate, Calls, 1e6));
    Rep.layer("vrp.ns_per_expr_eval", "ns",
              per(Propagate, R.Ranges.ExprEvaluations, 1e9));
    Rep.layer("vrp.expr_evals_per_fn", "count",
              per(R.Ranges.ExprEvaluations, Calls, 1.0));
    Rep.layer("vrp.subrange_ops_per_fn", "count",
              per(R.Ranges.SubOps, Calls, 1.0));
    Rep.layer("vrp.derivation_match_ratio", "ratio",
              per(R.Ranges.DerivationsMatched, R.Ranges.DerivationsTried, 1.0));
    Rep.layer("profile.ns_per_step", "ns",
              per(T.total("profile.run"), R.Steps, 1e9));
    Rep.layer("profile.steps", "count", static_cast<double>(R.Steps));
    Rep.layer("heuristics.us_per_fn", "us/fn",
              per(T.total("heuristics.ball_larus"),
                  T.count("heuristics.ball_larus"), 1e6));
    Rep.layer("heuristics.fallback_ratio", "ratio",
              per(R.FallbackBranches, R.FinalBranches, 1.0));
    Rep.layer("eval.errors_ms_per_pass", "ms",
              (T.total("eval.errors") + T.total("eval.average")) * 1e3);
    Rep.layer("driver.finalize_us_per_fn", "us/fn",
              per(T.total("driver.finalize"), T.count("driver.finalize"),
                  1e6));
    Rep.layer("acache.hit_ratio", "ratio", Base.CacheTotals.hitRate());
    Rep.layer("pcache.open_ms", "ms", Setup.median() * 1e3);
    Rep.layer("pcache.key_us_per_fn", "us/fn",
              per(T.total("pcache.make_key"), T.count("pcache.make_key"),
                  1e6));
    Rep.layer("pcache.serialize_us_per_fn", "us/fn",
              per(T.total("pcache.serialize"), T.count("pcache.serialize"),
                  1e6));
    Rep.layer("pcache.bytes_per_fn", "B/fn",
              per(R.PayloadBytes, T.count("pcache.serialize"), 1.0));
    Rep.layer("pcache.hit_ratio", "ratio", WarmHitRatio);
    Rep.wall("pass_s", BaseWall);
    Rep.wall("traced_s", TracedWall);
    Rep.wall("extra_s", T.extraTime(TStart));
    Rep.wall("covered_s", layerCoverage(T, TStart, TracedWall) * TracedWall);
    Rep.selfTimes(T.selfByLayer());
    T.write(P.WorkDir + "/trace-suite.jsonl");
  }

  Rep.emit();
  return Rep.allChecksPassed() ? 0 : 1;
}
