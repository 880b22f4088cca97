//===- analysis/PersistentCache.cpp - Durable per-function VRP memo -------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "analysis/PersistentCache.h"

#include "analysis/AliasAnalysis.h"
#include "ir/Function.h"
#include "ir/IRPrinter.h"
#include "ir/Instruction.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>

using namespace vrp;

namespace {

using json::hexDouble;
using json::parseHexDouble;
using json::parseSigned;
using json::parseUnsigned;

using ValueEncoder = std::function<std::string(const Value *)>;

/// Pointer-free value reference for payloads: restorable from the
/// function alone (instructions by dense id, params by index, interned
/// constants by value).
std::string encodeValue(const Value *V) {
  if (!V)
    return "_";
  switch (V->kind()) {
  case Value::Kind::Instruction:
    return "i" + std::to_string(cast<Instruction>(V)->id());
  case Value::Kind::Param:
    return "p" + std::to_string(cast<Param>(V)->index());
  case Value::Kind::Constant: {
    const auto *C = cast<Constant>(V);
    return C->isInt() ? "ci" + std::to_string(C->intValue())
                      : "cf" + hexDouble(C->floatValue());
  }
  }
  return "_";
}

/// Deserialization context: the target function's values by ordinal.
struct DecodeCtx {
  const Function &F;
  std::map<unsigned, const Instruction *> ById;

  explicit DecodeCtx(const Function &Fn) : F(Fn) {
    for (const auto &B : Fn.blocks())
      for (const auto &I : B->instructions())
        ById[I->id()] = I.get();
  }

  const Value *decode(const std::string &Tok, bool &Ok) const {
    Ok = true;
    if (Tok == "_")
      return nullptr;
    if (Tok.size() < 2) {
      Ok = false;
      return nullptr;
    }
    if (Tok[0] == 'i') {
      uint64_t Id = 0;
      if (!parseUnsigned(Tok.substr(1), Id)) {
        Ok = false;
        return nullptr;
      }
      auto It = ById.find(static_cast<unsigned>(Id));
      if (It == ById.end()) {
        Ok = false;
        return nullptr;
      }
      return It->second;
    }
    if (Tok[0] == 'p') {
      uint64_t Idx = 0;
      if (!parseUnsigned(Tok.substr(1), Idx) || Idx >= F.numParams()) {
        Ok = false;
        return nullptr;
      }
      return F.param(static_cast<unsigned>(Idx));
    }
    if (Tok[0] == 'c' && Tok[1] == 'i') {
      int64_t V = 0;
      if (!parseSigned(Tok.substr(2), V)) {
        Ok = false;
        return nullptr;
      }
      return Constant::getInt(V);
    }
    if (Tok[0] == 'c' && Tok[1] == 'f') {
      double V = 0;
      if (!parseHexDouble(Tok.substr(2), V)) {
        Ok = false;
        return nullptr;
      }
      return Constant::getFloat(V);
    }
    Ok = false;
    return nullptr;
  }
};

/// Renders a ValueRange as space-separated tokens; \p Enc renders
/// symbolic-bound values. Exact: every double is a hex float, every field
/// that restored() sets is present.
std::string renderRange(const ValueRange &VR, const ValueEncoder &Enc) {
  std::ostringstream OS;
  OS << "d" << (VR.distributionKnown() ? 1 : 0) << " ";
  switch (VR.kind()) {
  case ValueRange::Kind::Top:
    OS << "T";
    return OS.str();
  case ValueRange::Kind::Bottom:
    OS << "B";
    return OS.str();
  case ValueRange::Kind::FloatConst:
    OS << "F " << hexDouble(VR.floatValue());
    return OS.str();
  case ValueRange::Kind::FloatRanges: {
    FPIntervalView FPs = VR.fpIntervals();
    OS << "N " << FPs.size() << " " << hexDouble(VR.nanMass());
    for (size_t I = 0; I < FPs.size(); ++I) {
      FPInterval S = FPs[I];
      OS << " " << hexDouble(S.Prob) << " " << hexDouble(S.Lo) << " "
         << hexDouble(S.Hi);
    }
    return OS.str();
  }
  case ValueRange::Kind::Ranges:
    break;
  }
  OS << "R " << VR.subRanges().size();
  for (const SubRange &S : VR.subRanges())
    OS << " " << hexDouble(S.Prob) << " " << Enc(S.Lo.Sym) << " "
       << S.Lo.Offset << " " << Enc(S.Hi.Sym) << " " << S.Hi.Offset << " "
       << S.Stride;
  return OS.str();
}

/// Parses renderRange() output from a token stream.
bool parseRange(std::istringstream &In, const DecodeCtx &Ctx,
                ValueRange &Out) {
  std::string Tok;
  if (!(In >> Tok) || Tok.size() != 2 || Tok[0] != 'd' ||
      (Tok[1] != '0' && Tok[1] != '1'))
    return false;
  bool DistKnown = Tok[1] == '1';
  std::string KindTok;
  if (!(In >> KindTok))
    return false;
  if (KindTok == "T") {
    Out = ValueRange::restored(ValueRange::Kind::Top, 0.0, DistKnown, {});
    return true;
  }
  if (KindTok == "B") {
    Out = ValueRange::restored(ValueRange::Kind::Bottom, 0.0, DistKnown, {});
    return true;
  }
  if (KindTok == "F") {
    std::string V;
    double F = 0;
    if (!(In >> V) || !parseHexDouble(V, F))
      return false;
    Out = ValueRange::restored(ValueRange::Kind::FloatConst, F, DistKnown, {});
    return true;
  }
  if (KindTok == "N") {
    uint64_t N = 0;
    std::string NaNTok;
    double NaNMass = 0;
    if (!(In >> Tok) || !parseUnsigned(Tok, N) || N > 4096 || !(In >> NaNTok) ||
        !parseHexDouble(NaNTok, NaNMass))
      return false;
    std::vector<FPInterval> Subs;
    Subs.reserve(N);
    for (uint64_t I = 0; I < N; ++I) {
      std::string ProbTok, LoTok, HiTok;
      FPInterval S;
      if (!(In >> ProbTok >> LoTok >> HiTok) ||
          !parseHexDouble(ProbTok, S.Prob) || !parseHexDouble(LoTok, S.Lo) ||
          !parseHexDouble(HiTok, S.Hi))
        return false;
      Subs.push_back(S);
    }
    Out = ValueRange::restoredFP(NaNMass, DistKnown, std::move(Subs));
    return true;
  }
  if (KindTok != "R")
    return false;
  uint64_t N = 0;
  if (!(In >> Tok) || !parseUnsigned(Tok, N) || N > 4096)
    return false;
  std::vector<SubRange> Subs;
  Subs.reserve(N);
  for (uint64_t I = 0; I < N; ++I) {
    std::string ProbTok, LoSymTok, LoOffTok, HiSymTok, HiOffTok, StrideTok;
    if (!(In >> ProbTok >> LoSymTok >> LoOffTok >> HiSymTok >> HiOffTok >>
          StrideTok))
      return false;
    SubRange S;
    bool OkLo = false, OkHi = false;
    if (!parseHexDouble(ProbTok, S.Prob))
      return false;
    S.Lo.Sym = Ctx.decode(LoSymTok, OkLo);
    S.Hi.Sym = Ctx.decode(HiSymTok, OkHi);
    if (!OkLo || !OkHi || !parseSigned(LoOffTok, S.Lo.Offset) ||
        !parseSigned(HiOffTok, S.Hi.Offset) ||
        !parseSigned(StrideTok, S.Stride))
      return false;
    Subs.push_back(S);
  }
  Out = ValueRange::restored(ValueRange::Kind::Ranges, 0.0, DistKnown,
                             std::move(Subs));
  return true;
}

std::string fnvHex(uint64_t H) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// The resolved interprocedural context, exactly as the engine would see
/// it through the hooks: one range per formal parameter, one per call
/// site in walk order. Symbolic bounds (possible only in hook outputs
/// that skipped sanitizeForCallee) render via displayName — deterministic
/// text, hashing-only. With alias ranges on, the function's alias
/// environment is appended: load results then depend on module-level
/// facts (writer exclusivity, global initializers) that F's own IR text
/// cannot capture, so a store added in *another* function must miss.
std::string contextText(const Function &F, const PropagationContext &Ctx,
                        const VRPOptions &Opts) {
  ValueEncoder Names = [](const Value *V) {
    return V ? V->displayName() : std::string("_");
  };
  std::ostringstream OS;
  for (unsigned I = 0; I < F.numParams(); ++I) {
    ValueRange R = Ctx.ParamRange ? Ctx.ParamRange(F.param(I))
                                  : ValueRange::bottom();
    OS << "P" << I << ":" << renderRange(R, Names) << "\n";
  }
  unsigned CallIdx = 0;
  for (const auto &B : F.blocks())
    for (const auto &I : B->instructions())
      if (const auto *Call = dyn_cast<CallInst>(I.get())) {
        ValueRange R = Ctx.CallResultRange ? Ctx.CallResultRange(Call)
                                           : ValueRange::bottom();
        OS << "C" << CallIdx++ << ":" << renderRange(R, Names) << "\n";
      }
  if (Opts.EnableAliasRanges)
    OS << (Ctx.Alias ? AliasInfo::environmentText(F, *Ctx.Alias)
                     : AliasInfo::environmentText(F));
  return OS.str();
}

} // namespace

std::unique_ptr<PersistentCache> PersistentCache::open(const std::string &Path,
                                                       bool Verify,
                                                       Status *Why) {
  auto Store = store::ResultStore::open(Path, FormatVersion, Why);
  if (!Store)
    return nullptr;
  auto PC = std::unique_ptr<PersistentCache>(new PersistentCache());
  store::ResultStoreStats S = Store->stats();
  telemetry::count(telemetry::Counter::PersistentCacheEvictions,
                   S.Evictions);
  PC->Store = std::move(Store);
  PC->Verify = Verify;
  return PC;
}

std::string PersistentCache::makeKey(const Function &F, const VRPOptions &Opts,
                                     const PropagationContext &Ctx) {
  std::ostringstream IR;
  printFunction(F, IR);
  return fnvHex(store::fnv1a64(IR.str())) + "-" +
         fnvHex(store::fnv1a64(resultIdentity(Opts))) + "-" +
         fnvHex(store::fnv1a64(contextText(F, Ctx, Opts)));
}

std::string PersistentCache::serialize(const FunctionVRPResult &R) {
  std::ostringstream OS;
  OS << "vrppc " << FormatVersion << "\n";
  OS << "fn " << (R.F ? R.F->name() : "") << "\n";
  OS << "stats " << R.Stats.ExprEvaluations << " " << R.Stats.SubOps << " "
     << R.Stats.PhiEvaluations << " " << R.Stats.BranchEvaluations << " "
     << R.Stats.DerivationsTried << " " << R.Stats.DerivationsMatched << " "
     << R.Stats.Widenings << "\n";
  OS << "blockprob " << R.BlockProb.size() << "\n";
  for (double P : R.BlockProb)
    OS << hexDouble(P) << "\n";

  // Ranges is pointer-keyed and unordered; Branches is pointer-keyed and
  // pointer-ordered. Sort both by their pointer-free encodings so the
  // bytes are independent of heap layout (bitwise identity across runs is
  // the whole point).
  std::vector<std::pair<std::string, const ValueRange *>> Entries;
  Entries.reserve(R.Ranges.size());
  for (const auto &[V, VR] : R.Ranges)
    Entries.emplace_back(encodeValue(V), &VR);
  std::sort(Entries.begin(), Entries.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  OS << "ranges " << Entries.size() << "\n";
  for (const auto &[Key, VR] : Entries)
    OS << Key << " " << renderRange(*VR, encodeValue) << "\n";

  std::vector<std::pair<unsigned, const BranchPrediction *>> Branches;
  Branches.reserve(R.Branches.size());
  for (const auto &[Br, Pred] : R.Branches)
    Branches.emplace_back(Br->id(), &Pred);
  std::sort(Branches.begin(), Branches.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  OS << "branches " << Branches.size() << "\n";
  for (const auto &[Id, Pred] : Branches)
    OS << Id << " " << hexDouble(Pred->ProbTrue) << " "
       << (Pred->FromRanges ? 1 : 0) << " " << (Pred->Reachable ? 1 : 0)
       << "\n";
  OS << "end\n";
  return OS.str();
}

bool PersistentCache::deserialize(const std::string &Payload,
                                  const Function &F, FunctionVRPResult &Out) {
  DecodeCtx Ctx(F);
  std::istringstream In(Payload);
  std::string Line, Word;

  auto nextLine = [&](const char *Head) -> bool {
    if (!std::getline(In, Line))
      return false;
    return Line.rfind(Head, 0) == 0;
  };

  if (!nextLine("vrppc ") ||
      Line != "vrppc " + std::to_string(FormatVersion))
    return false;
  if (!nextLine("fn ") || Line.substr(3) != F.name())
    return false;

  Out = FunctionVRPResult();
  Out.F = &F;

  if (!nextLine("stats "))
    return false;
  {
    std::istringstream LS(Line.substr(6));
    if (!(LS >> Out.Stats.ExprEvaluations >> Out.Stats.SubOps >>
          Out.Stats.PhiEvaluations >> Out.Stats.BranchEvaluations >>
          Out.Stats.DerivationsTried >> Out.Stats.DerivationsMatched >>
          Out.Stats.Widenings))
      return false;
  }

  if (!nextLine("blockprob "))
    return false;
  uint64_t N = 0;
  if (!parseUnsigned(Line.substr(10), N) || N != F.numBlocks())
    return false;
  Out.BlockProb.reserve(N);
  for (uint64_t I = 0; I < N; ++I) {
    double P = 0;
    if (!std::getline(In, Line) || !parseHexDouble(Line, P))
      return false;
    Out.BlockProb.push_back(P);
  }

  if (!nextLine("ranges ") || !parseUnsigned(Line.substr(7), N) ||
      N > (1u << 24))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    if (!std::getline(In, Line))
      return false;
    std::istringstream LS(Line);
    if (!(LS >> Word))
      return false;
    bool Ok = false;
    const Value *V = Ctx.decode(Word, Ok);
    if (!Ok || !V)
      return false;
    ValueRange VR;
    if (!parseRange(LS, Ctx, VR))
      return false;
    Out.Ranges.emplace(V, std::move(VR));
  }

  if (!nextLine("branches ") || !parseUnsigned(Line.substr(9), N) ||
      N > (1u << 24))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    if (!std::getline(In, Line))
      return false;
    std::istringstream LS(Line);
    uint64_t Id = 0;
    std::string ProbTok;
    int FromRanges = -1, Reachable = -1;
    if (!(LS >> Id >> ProbTok >> FromRanges >> Reachable))
      return false;
    auto It = Ctx.ById.find(static_cast<unsigned>(Id));
    if (It == Ctx.ById.end())
      return false;
    const auto *Br = dyn_cast<CondBrInst>(It->second);
    if (!Br || FromRanges < 0 || FromRanges > 1 || Reachable < 0 ||
        Reachable > 1)
      return false;
    BranchPrediction Pred;
    if (!parseHexDouble(ProbTok, Pred.ProbTrue))
      return false;
    Pred.FromRanges = FromRanges == 1;
    Pred.Reachable = Reachable == 1;
    Out.Branches.emplace(Br, Pred);
  }

  return nextLine("end");
}

bool PersistentCache::lookup(const std::string &Key, const Function &F,
                             FunctionVRPResult &Out,
                             std::string *RawPayload) {
  const std::string *Payload = Store->lookup(Key);
  if (Payload && deserialize(*Payload, F, Out)) {
    telemetry::count(telemetry::Counter::PersistentCacheHits);
    if (RawPayload)
      *RawPayload = *Payload;
    std::lock_guard<std::mutex> L(M);
    Scopes[fault::currentKey()].push_back(
        Touched{F.name(), Key, std::string(), /*FromSnapshot=*/true});
    return true;
  }
  // A payload that fails to decode (e.g. a hash collision against a
  // structurally different function) is just a miss.
  telemetry::count(telemetry::Counter::PersistentCacheMisses);
  return false;
}

void PersistentCache::insert(const std::string &Key,
                             const FunctionVRPResult &R) {
  Touched T;
  T.FnName = R.F ? R.F->name() : "";
  T.Key = Key;
  T.Payload = serialize(R);
  std::lock_guard<std::mutex> L(M);
  Scopes[fault::currentKey()].push_back(std::move(T));
}

void PersistentCache::expunge(const std::string &FnName) {
  std::vector<std::string> Tombstones;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Scopes.find(fault::currentKey());
    if (It == Scopes.end())
      return;
    auto &Vec = It->second;
    std::vector<Touched> Kept;
    Kept.reserve(Vec.size());
    for (Touched &T : Vec) {
      if (T.FnName != FnName) {
        Kept.push_back(std::move(T));
        continue;
      }
      if (T.FromSnapshot)
        Tombstones.push_back(T.Key); // Evict the stored record too.
      // Pending inserts for the quarantined function are simply dropped.
    }
    Vec = std::move(Kept);
  }
  for (const std::string &Key : Tombstones)
    Store->appendTombstone(Key);
}

void PersistentCache::commitScope() {
  std::vector<Touched> Pending;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Scopes.find(fault::currentKey());
    if (It == Scopes.end())
      return;
    Pending = std::move(It->second);
    Scopes.erase(It);
  }
  uint64_t Bytes = 0;
  for (const Touched &T : Pending)
    if (!T.FromSnapshot)
      Bytes += Store->append(T.Key, T.Payload);
  if (Bytes)
    telemetry::count(telemetry::Counter::PersistentCacheBytesWritten, Bytes);
}

void PersistentCache::discardScope() {
  std::lock_guard<std::mutex> L(M);
  Scopes.erase(fault::currentKey());
}
