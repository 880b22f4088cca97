//===- serve/Service.cpp - Resident analysis service -----------------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "serve/Service.h"

#include "analysis/AnalysisCache.h"
#include "analysis/PersistentCache.h"
#include "driver/Pipeline.h"
#include "ir/IRPrinter.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/ResultStore.h"

#include <chrono>
#include <unistd.h>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace vrp;
using namespace vrp::serve;

namespace {

bool knownPredictor(const std::string &Name) {
  return Name == "vrp" || Name == "ball-larus" || Name == "90-50" ||
         Name == "random";
}

/// A failure is worth one retry when it looks transient: an injected
/// fault or an escaped exception (Internal), not a deterministic
/// rejection of the input (parse/verify) or an exhausted budget —
/// re-running those reproduces the same answer at full cost.
bool transientFailure(const Response &R) {
  if (R.Status != RespStatus::Error)
    return false;
  if (R.Message.find("injected") != std::string::npos)
    return true;
  return R.Category == errorCategoryName(ErrorCategory::Internal) &&
         R.Site != "irgen";
}

/// The analyze payload: branchDecisions() as JSON. Hex-float
/// probabilities and module order keep the bytes a pure function of the
/// input.
void writeAnalyzeJson(const Module &M, const ModuleVRPResult &VRP,
                      AnalysisCache *Cache, const std::string &Predictor,
                      std::ostream &OS) {
  OS << "{\"functions\":[";
  bool FirstFn = true;
  for (const FunctionDecisions &FD :
       branchDecisions(M, VRP, Cache, Predictor)) {
    OS << (FirstFn ? "" : ",") << "{\"name\":\""
       << json::escape(FD.F->name())
       << "\",\"degraded\":" << (FD.VRP->Degraded ? "true" : "false")
       << ",\"branches\":[";
    FirstFn = false;
    bool FirstBr = true;
    for (const BranchDecision &D : FD.Branches) {
      OS << (FirstBr ? "" : ",") << "{\"line\":\""
         << json::escape(D.Branch->loc().str()) << "\",\"cond\":\""
         << json::escape(
                instructionToString(*cast<Instruction>(D.Branch->cond())))
         << "\",\"prob\":\"" << json::hexDouble(D.ProbTrue)
         << "\",\"source\":\"" << json::escape(D.Source) << "\"}";
      FirstBr = false;
    }
    OS << "]}";
  }
  OS << "],\"degraded_functions\":" << VRP.FunctionsDegraded << "}";
}

} // namespace

VRPOptions serve::requestOptions(const Request &Req,
                                 const ServiceConfig &Config,
                                 bool ForceDegrade) {
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Threads = Config.AnalysisThreads;
  // Overload degradation rides the existing budget machinery: a one-step
  // limit makes every analyzed function exhaust immediately and take the
  // Ball–Larus fallback, exactly as a blown --budget does. A
  // persistent-cache hit still restores the full result — a warm entry
  // costs nothing, so overload never discards it.
  Opts.Budget.PropagationStepLimit = ForceDegrade ? 1 : Req.StepLimit;
  Opts.Budget.DeadlineMs =
      Req.DeadlineMs != 0 ? Req.DeadlineMs : Config.DefaultDeadlineMs;
  return Opts;
}

uint64_t serve::memoKey(const Request &Req, const VRPOptions &Opts) {
  std::string Material = Req.Method;
  Material += '\0';
  Material += Req.Predictor;
  Material += '\0';
  Material += Req.DumpRanges ? '1' : '0';
  Material += '\0';
  Material += evaluationIdentity(Opts);
  Material += '\0';
  Material += Req.Source;
  return store::fnv1a64(Material);
}

std::unique_ptr<Service> Service::create(const ServiceConfig &Config,
                                         Status *Why) {
  std::unique_ptr<Service> S(new Service());
  S->Config = Config;
  if (!Config.CachePath.empty()) {
    Status CacheWhy;
    S->PCache =
        PersistentCache::open(Config.CachePath, /*Verify=*/false, &CacheWhy);
    if (!S->PCache) {
      if (Why)
        *Why = CacheWhy.ok()
                   ? Status::failure(ErrorCategory::Internal, "service",
                                     "cannot open cache " + Config.CachePath)
                   : CacheWhy;
      return nullptr;
    }
  }
  return S;
}

Service::~Service() = default;

Response Service::handle(const Request &Req, bool ForceDegrade) {
  Requests.fetch_add(1);
  if (Req.Method == "ping")
    return okResponse(Req.Id, "pong");
  if (Req.Method == "stats")
    return okResponse(Req.Id, statsJson());
  if (Req.Method == "health") {
    // The supervisor's heartbeat: proves the process is alive *and*
    // dispatching (a SIGSTOPped or wedged worker cannot answer). The pid
    // lets the supervisor confirm it is talking to the generation it
    // spawned, not a stale socket.
    return okResponse(Req.Id,
                      "{\"pid\":" + std::to_string(::getpid()) + "}");
  }
  if (Req.Method != "predict" && Req.Method != "analyze") {
    Failures.fetch_add(1);
    return failedResponse(Req.Id, RespStatus::Error,
                          errorCategoryName(ErrorCategory::Internal),
                          "service", "unknown method '" + Req.Method + "'");
  }
  if (!knownPredictor(Req.Predictor)) {
    Failures.fetch_add(1);
    return failedResponse(Req.Id, RespStatus::Error,
                          errorCategoryName(ErrorCategory::Internal),
                          "service",
                          "unknown predictor '" + Req.Predictor + "'");
  }

  // Memoization covers only deterministic requests: a wall-clock
  // deadline makes the degradation pattern timing-dependent, so those
  // always recompute.
  VRPOptions Opts = requestOptions(Req, Config, ForceDegrade);
  bool Memoizable = Config.ResponseMemo && Opts.Budget.DeadlineMs == 0;
  uint64_t Key = Memoizable ? memoKey(Req, Opts) : 0;
  if (Memoizable) {
    std::lock_guard<std::mutex> Lock(MemoM);
    auto It = Memo.find(Key);
    if (It != Memo.end()) {
      MemoHits.fetch_add(1);
      Response Hit = It->second;
      Hit.Id = Req.Id;
      if (Hit.Degraded)
        DegradedResponses.fetch_add(1);
      return Hit;
    }
  }

  // Every request buffers its persistent-cache inserts under a private
  // scope: concurrent requests can never interleave half-finished
  // results, and a failed attempt discards instead of committing.
  std::string Scope = "serve:" + std::to_string(Seq.fetch_add(1));
  fault::ScopedKey ScopeKey(Scope);

  Response R = attempt(Req, Opts);
  if (transientFailure(R)) {
    // One supervised retry with backoff, mirroring eval/SuiteRunner's
    // worker supervision. Deterministic failures never reach here.
    Retries.fetch_add(1);
    if (PCache)
      PCache->discardScope();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    R = attempt(Req, Opts);
  }
  R.Id = Req.Id;

  if (PCache) {
    if (R.Status == RespStatus::Ok)
      PCache->commitScope();
    else
      PCache->discardScope();
  }

  if (R.Status != RespStatus::Ok)
    Failures.fetch_add(1);
  if (R.Degraded)
    DegradedResponses.fetch_add(1);
  if (Memoizable && R.Status == RespStatus::Ok) {
    std::lock_guard<std::mutex> Lock(MemoM);
    Response Stored = R;
    Stored.Id = 0;
    Memo.emplace(Key, std::move(Stored));
  }
  return R;
}

Response Service::attempt(const Request &Req, const VRPOptions &Opts) {
  try {
    if (fault::shouldFail("worker"))
      throw std::runtime_error("injected worker fault");

    DiagnosticEngine Diags;
    auto Compiled = compileProgram(Req.Source, Diags, Opts);
    if (!Compiled.ok()) {
      const VrpError &E = Compiled.error();
      return failedResponse(Req.Id, RespStatus::Error,
                            errorCategoryName(E.Category), E.Site, E.Message);
    }
    Module &M = *Compiled.value()->IR;

    AnalysisCache Cache;
    ModuleVRPResult VRP = runModuleVRP(M, Opts, &Cache, PCache.get());
    std::ostringstream OS;
    if (Req.Method == "predict")
      renderPredictionReport(M, VRP, &Cache,
                             {Req.Predictor, Req.DumpRanges}, OS);
    else
      writeAnalyzeJson(M, VRP, &Cache, Req.Predictor, OS);
    Response R = okResponse(Req.Id, OS.str());
    R.Degraded = VRP.FunctionsDegraded > 0;
    return R;
  } catch (const std::exception &E) {
    return failedResponse(Req.Id, RespStatus::Error,
                          errorCategoryName(ErrorCategory::Internal),
                          "service", E.what());
  } catch (...) {
    return failedResponse(Req.Id, RespStatus::Error,
                          errorCategoryName(ErrorCategory::Internal),
                          "service", "unknown exception");
  }
}

ServiceCounters Service::counters() const {
  ServiceCounters C;
  C.Requests = Requests.load();
  C.Failures = Failures.load();
  C.DegradedResponses = DegradedResponses.load();
  C.MemoHits = MemoHits.load();
  C.Retries = Retries.load();
  return C;
}

std::string Service::statsJson() const {
  ServiceCounters C = counters();
  std::ostringstream OS;
  OS << "{\"requests\":" << C.Requests << ",\"failures\":" << C.Failures
     << ",\"degraded\":" << C.DegradedResponses
     << ",\"memo_hits\":" << C.MemoHits << ",\"retries\":" << C.Retries;
  if (PCache) {
    store::ResultStoreStats S = PCache->stats();
    OS << ",\"pcache\":{\"hits\":" << S.Hits << ",\"misses\":" << S.Misses
       << ",\"records\":" << S.Records
       << ",\"corrupt_records\":" << S.CorruptRecords
       << ",\"bytes_written\":" << S.BytesWritten << "}";
  }
  OS << "}";
  return OS.str();
}
