//===- eval/Journal.cpp - Crash-resilient suite checkpoint ----------------===//

#include "eval/Journal.h"

#include "support/Json.h"
#include "support/Telemetry.h"

#include <sstream>

using namespace vrp;
using namespace vrp::journal;

namespace {

// Version 3: the fingerprint became evaluationIdentity() (it had missed
// the FP/alias switches and the deadline), so a v2 journal must not match.
constexpr int FormatVersion = 3;

using json::Cursor;
using json::escape;

void writeCdf(std::ostringstream &OS, const ErrorCdf &C) {
  auto S = C.rawState();
  OS << '[';
  for (size_t I = 0; I < S.size(); ++I)
    OS << (I ? "," : "") << '"' << json::hexDouble(S[I]) << '"';
  OS << ']';
}

// Parsing: the strict cursor over the exact format serializeEvaluation
// emits. Any deviation fails the line, which the loader treats as a torn
// write and skips.

bool parseCdf(Cursor &C, ErrorCdf &Out) {
  std::array<double, ErrorCdf::NumBuckets + 2> S{};
  if (!C.lit("["))
    return false;
  for (size_t I = 0; I < S.size(); ++I) {
    if (I && !C.lit(","))
      return false;
    if (!C.hexDouble(S[I]))
      return false;
  }
  if (!C.lit("]"))
    return false;
  Out = ErrorCdf::fromRawState(S);
  return true;
}

std::string headerLine(const std::string &Fingerprint) {
  std::ostringstream OS;
  OS << "{\"journal\":\"vrp-suite\",\"version\":" << FormatVersion
     << ",\"fingerprint\":\"" << escape(Fingerprint) << "\"}";
  return OS.str();
}

} // namespace

std::string journal::fingerprint(
    const std::vector<const BenchmarkProgram *> &Programs,
    const VRPOptions &Opts) {
  std::ostringstream OS;
  OS << "v" << FormatVersion << ";programs=";
  for (const BenchmarkProgram *P : Programs)
    OS << P->Name << ",";
  OS << ";options=" << evaluationIdentity(Opts);
  return OS.str();
}

std::string journal::serializeEvaluation(const BenchmarkEvaluation &Eval) {
  std::ostringstream OS;
  OS << "{\"name\":\"" << escape(Eval.Name) << "\"";
  OS << ",\"ok\":" << (Eval.Ok ? "true" : "false");
  OS << ",\"error\":\"" << escape(Eval.Error) << "\"";
  OS << ",\"failure\":";
  if (Eval.Failure) {
    OS << "[" << static_cast<unsigned>(Eval.Failure->Category) << ",\""
       << escape(Eval.Failure->Stage) << "\",\""
       << escape(Eval.Failure->Message) << "\"]";
  } else {
    OS << "null";
  }
  OS << ",\"degraded_functions\":" << Eval.DegradedFunctions;
  OS << ",\"partial_profile\":" << (Eval.PartialProfile ? "true" : "false");
  OS << ",\"retried\":" << (Eval.Retried ? "true" : "false");
  OS << ",\"ref_steps\":" << Eval.RefSteps;
  OS << ",\"static_branches\":" << Eval.StaticBranches;
  OS << ",\"executed_branches\":" << Eval.ExecutedBranches;
  OS << ",\"range_fraction\":\"" << json::hexDouble(Eval.VRPRangeFraction)
     << "\"";
  OS << ",\"audit_checks\":" << Eval.AuditChecks;
  OS << ",\"soundness_violations\":" << Eval.SoundnessViolations;
  OS << ",\"quarantined_functions\":" << Eval.QuarantinedFunctions;
  OS << ",\"quarantines\":[";
  for (size_t I = 0; I < Eval.Quarantines.size(); ++I) {
    const quarantine::Record &R = Eval.Quarantines[I];
    OS << (I ? "," : "") << "[" << static_cast<unsigned>(R.Why) << ",\""
       << escape(R.Context) << "\",\"" << escape(R.Function) << "\",\""
       << escape(R.Detail) << "\"," << R.Violations << "]";
  }
  OS << "]";
  const VRPStats &V = Eval.VRP;
  OS << ",\"vrp\":[" << V.Ranges.ExprEvaluations << "," << V.Ranges.SubOps
     << "," << V.Ranges.PhiEvaluations << "," << V.Ranges.BranchEvaluations
     << "," << V.Ranges.DerivationsTried << "," << V.Ranges.DerivationsMatched
     << "," << V.Ranges.Widenings << "," << V.FunctionsAnalyzed << ","
     << V.FunctionsDegraded << "," << V.FunctionsCloned << "," << V.Rounds
     << "," << V.Waves << "," << V.FunctionsReanalyzed << ","
     << V.RangePredictedBranches << "," << V.HeuristicBranches << ","
     << V.UnreachableBranches << "]";
  OS << ",\"cache\":[" << Eval.Cache.Hits << "," << Eval.Cache.Misses << ","
     << Eval.Cache.Invalidations << "]";
  OS << ",\"curves\":[";
  bool FirstCurve = true;
  for (const auto &[Kind, Pair] : Eval.Curves) {
    OS << (FirstCurve ? "[" : ",[") << static_cast<unsigned>(Kind) << ",";
    writeCdf(OS, Pair.first);
    OS << ",";
    writeCdf(OS, Pair.second);
    OS << "]";
    FirstCurve = false;
  }
  OS << "]}";
  return OS.str();
}

bool journal::deserializeEvaluation(const std::string &Line,
                                    BenchmarkEvaluation &Out) {
  BenchmarkEvaluation E;
  Cursor C(Line);
  C.lit("{\"name\":");
  C.str(E.Name);
  C.lit(",\"ok\":");
  C.boolean(E.Ok);
  C.lit(",\"error\":");
  C.str(E.Error);
  C.lit(",\"failure\":");
  if (C.peek('[')) {
    C.lit("[");
    FailureInfo F;
    unsigned Cat = 0;
    C.u32(Cat);
    F.Category = static_cast<ErrorCategory>(Cat);
    C.lit(",");
    C.str(F.Stage);
    C.lit(",");
    C.str(F.Message);
    C.lit("]");
    F.Benchmark = E.Name;
    E.Failure = std::move(F);
  } else {
    C.lit("null");
  }
  C.lit(",\"degraded_functions\":");
  C.u32(E.DegradedFunctions);
  C.lit(",\"partial_profile\":");
  C.boolean(E.PartialProfile);
  C.lit(",\"retried\":");
  C.boolean(E.Retried);
  C.lit(",\"ref_steps\":");
  C.uint(E.RefSteps);
  C.lit(",\"static_branches\":");
  C.u32(E.StaticBranches);
  C.lit(",\"executed_branches\":");
  C.u32(E.ExecutedBranches);
  C.lit(",\"range_fraction\":");
  C.hexDouble(E.VRPRangeFraction);
  C.lit(",\"audit_checks\":");
  C.uint(E.AuditChecks);
  C.lit(",\"soundness_violations\":");
  C.uint(E.SoundnessViolations);
  C.lit(",\"quarantined_functions\":");
  C.u32(E.QuarantinedFunctions);
  C.lit(",\"quarantines\":[");
  while (C.peek('[')) {
    C.lit("[");
    quarantine::Record R;
    unsigned Why = 0;
    C.u32(Why);
    R.Why = static_cast<quarantine::Reason>(Why);
    C.lit(",");
    C.str(R.Context);
    C.lit(",");
    C.str(R.Function);
    C.lit(",");
    C.str(R.Detail);
    C.lit(",");
    C.uint(R.Violations);
    C.lit("]");
    E.Quarantines.push_back(std::move(R));
    if (C.peek(','))
      C.lit(",");
  }
  C.lit("]");
  VRPStats &V = E.VRP;
  C.lit(",\"vrp\":[");
  C.uint(V.Ranges.ExprEvaluations);
  C.lit(",");
  C.uint(V.Ranges.SubOps);
  C.lit(",");
  C.uint(V.Ranges.PhiEvaluations);
  C.lit(",");
  C.uint(V.Ranges.BranchEvaluations);
  C.lit(",");
  C.uint(V.Ranges.DerivationsTried);
  C.lit(",");
  C.uint(V.Ranges.DerivationsMatched);
  C.lit(",");
  C.uint(V.Ranges.Widenings);
  C.lit(",");
  C.u32(V.FunctionsAnalyzed);
  C.lit(",");
  C.u32(V.FunctionsDegraded);
  C.lit(",");
  C.u32(V.FunctionsCloned);
  C.lit(",");
  C.u32(V.Rounds);
  C.lit(",");
  C.u32(V.Waves);
  C.lit(",");
  C.u32(V.FunctionsReanalyzed);
  C.lit(",");
  C.uint(V.RangePredictedBranches);
  C.lit(",");
  C.uint(V.HeuristicBranches);
  C.lit(",");
  C.uint(V.UnreachableBranches);
  C.lit("]");
  C.lit(",\"cache\":[");
  C.uint(E.Cache.Hits);
  C.lit(",");
  C.uint(E.Cache.Misses);
  C.lit(",");
  C.uint(E.Cache.Invalidations);
  C.lit("]");
  C.lit(",\"curves\":[");
  while (C.peek('[')) {
    C.lit("[");
    unsigned Kind = 0;
    C.u32(Kind);
    C.lit(",");
    ErrorCdf Unweighted, Weighted;
    if (!parseCdf(C, Unweighted))
      return false;
    C.lit(",");
    if (!parseCdf(C, Weighted))
      return false;
    C.lit("]");
    E.Curves[static_cast<PredictorKind>(Kind)] = {Unweighted, Weighted};
    if (C.peek(','))
      C.lit(",");
  }
  C.lit("]}");
  if (!C.atEnd())
    return false;
  Out = std::move(E);
  return true;
}

LoadResult SuiteJournal::load(const std::string &Path,
                              const std::string &Fingerprint) {
  LoadResult Result;
  std::ifstream In(Path);
  if (!In.is_open())
    return Result;
  std::string Line;
  if (!std::getline(In, Line))
    return Result;
  if (Line != headerLine(Fingerprint))
    return Result; // Different programs/options: journal unusable.
  Result.HeaderMatched = true;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    BenchmarkEvaluation E;
    if (deserializeEvaluation(Line, E))
      Result.Entries[E.Name] = std::move(E); // Duplicates: last wins.
    else
      ++Result.CorruptLines; // Torn write — skip, never fatal.
  }
  return Result;
}

std::unique_ptr<SuiteJournal> SuiteJournal::open(const std::string &Path,
                                                 const std::string &Fingerprint,
                                                 bool Append) {
  auto J = std::unique_ptr<SuiteJournal>(new SuiteJournal());
  J->OS.open(Path, Append ? (std::ios::out | std::ios::app)
                          : (std::ios::out | std::ios::trunc));
  if (!J->OS.is_open())
    return nullptr;
  if (!Append) {
    J->OS << headerLine(Fingerprint) << "\n";
    J->OS.flush();
  }
  return J;
}

void SuiteJournal::append(const BenchmarkEvaluation &Eval) {
  std::string Line = serializeEvaluation(Eval);
  std::lock_guard<std::mutex> L(M);
  OS << Line << "\n";
  OS.flush();
  telemetry::count(telemetry::Counter::JournalEntriesWritten);
}
