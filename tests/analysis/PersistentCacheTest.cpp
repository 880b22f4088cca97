//===- tests/analysis/PersistentCacheTest.cpp - Durable memo tests --------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The persistent per-function result cache: bitwise serialization round
// trips, the content-addressed key recipe (IR, options, and resolved
// interprocedural context must all be fingerprinted), corrupt-payload
// tolerance, and the commit/expunge scope lifecycle.
//
//===----------------------------------------------------------------------===//

#include "analysis/PersistentCache.h"
#include "driver/Pipeline.h"
#include "support/ResultStore.h"
#include "vrp/Propagation.h"

#include <algorithm>
#include <cstdio>
#include <gtest/gtest.h>
#include <iterator>
#include <memory>
#include <sstream>

using namespace vrp;

namespace {

std::string tempPath(const std::string &Name) {
  std::string Path = ::testing::TempDir() + "persistent_cache_" + Name;
  std::remove(Path.c_str());
  return Path;
}

/// Compiles one VL source and hands back the pipeline output (owns the
/// module).
std::unique_ptr<CompiledProgram> compile(const std::string &Source) {
  DiagnosticEngine Diags;
  VRPOptions Opts;
  auto Compiled = compileProgram(Source, Diags, Opts);
  EXPECT_TRUE(Compiled.ok()) << "test source must compile";
  return std::move(Compiled.value());
}

const char *LoopSource = R"(
fn clamp(x) {
  if (x < 0) {
    return 0;
  }
  if (x > 255) {
    return 255;
  }
  return x;
}

fn main() {
  var total = 0;
  for (var i = 0; i < 100; i = i + 1) {
    total = total + clamp(i * 7 - 50);
  }
  return total;
}
)";

const Function *findFn(const Module &M, const std::string &Name) {
  for (const auto &F : M.functions())
    if (F->name() == Name)
      return F.get();
  return nullptr;
}

TEST(PersistentCacheTest, SerializeDeserializeRoundTripsBitwise) {
  auto Program = compile(LoopSource);
  const Module &M = *Program->IR;
  VRPOptions Opts;
  for (const auto &F : M.functions()) {
    FunctionVRPResult R = propagateRanges(*F, Opts);
    std::string Bytes = PersistentCache::serialize(R);

    FunctionVRPResult Restored;
    ASSERT_TRUE(PersistentCache::deserialize(Bytes, *F, Restored))
        << F->name();
    // Bitwise identity: re-serializing the restored result reproduces
    // the original bytes exactly (every double survives the hex-float
    // round trip, every symbolic bound re-resolves).
    EXPECT_EQ(PersistentCache::serialize(Restored), Bytes) << F->name();
    EXPECT_EQ(Restored.Stats.ExprEvaluations, R.Stats.ExprEvaluations);
    EXPECT_EQ(Restored.BlockProb, R.BlockProb);
    EXPECT_EQ(Restored.Branches.size(), R.Branches.size());
    EXPECT_EQ(Restored.Ranges.size(), R.Ranges.size());
    EXPECT_EQ(Restored.Degraded, R.Degraded);
  }
}

TEST(PersistentCacheTest, ResultAffectingOptionsChangeTheKey) {
  auto Program = compile(LoopSource);
  const Function *F = findFn(*Program->IR, "clamp");
  ASSERT_NE(F, nullptr);
  PropagationContext Ctx;

  VRPOptions Base;
  std::string BaseKey = PersistentCache::makeKey(*F, Base, Ctx);
  EXPECT_EQ(PersistentCache::makeKey(*F, Base, Ctx), BaseKey)
      << "the key must be a pure function of its inputs";

  VRPOptions Sub = Base;
  Sub.MaxSubRanges += 1;
  EXPECT_NE(PersistentCache::makeKey(*F, Sub, Ctx), BaseKey);

  VRPOptions Sym = Base;
  Sym.EnableSymbolicRanges = !Sym.EnableSymbolicRanges;
  EXPECT_NE(PersistentCache::makeKey(*F, Sym, Ctx), BaseKey);

  VRPOptions Budget = Base;
  Budget.Budget.PropagationStepLimit = 12345;
  EXPECT_NE(PersistentCache::makeKey(*F, Budget, Ctx), BaseKey);

  // Threads is execution mechanics, not analysis input: results are
  // identical at any thread count, so the key must not move.
  VRPOptions Threads = Base;
  Threads.Threads = 7;
  EXPECT_EQ(PersistentCache::makeKey(*F, Threads, Ctx), BaseKey);
}

TEST(PersistentCacheTest, ResolvedContextChangesTheKey) {
  // The interprocedural dependency fingerprint: when a callee's return
  // range (or a caller-supplied parameter range) changes — say after the
  // callee was edited — the dependent function's key must change, so the
  // stale cached result misses instead of being served.
  auto Program = compile(LoopSource);
  const Function *F = findFn(*Program->IR, "main");
  ASSERT_NE(F, nullptr);

  PropagationContext Bottom;
  std::string BottomKey = PersistentCache::makeKey(*F, VRPOptions(), Bottom);

  PropagationContext Narrow;
  Narrow.CallResultRange = [](const CallInst *) {
    return ValueRange::intConstant(42);
  };
  std::string NarrowKey = PersistentCache::makeKey(*F, VRPOptions(), Narrow);
  EXPECT_NE(NarrowKey, BottomKey);

  PropagationContext Wider;
  Wider.CallResultRange = [](const CallInst *) {
    SubRange S;
    S.Prob = 1.0;
    S.Lo.Offset = 0;
    S.Hi.Offset = 255;
    S.Stride = 1;
    return ValueRange::ranges({S}, VRPOptions().MaxSubRanges);
  };
  EXPECT_NE(PersistentCache::makeKey(*F, VRPOptions(), Wider), NarrowKey);
}

TEST(PersistentCacheTest, DifferentFunctionBodiesGetDifferentKeys) {
  auto A = compile("fn f(x) { if (x > 0) { return 1; } return 0; }");
  auto B = compile("fn f(x) { if (x > 1) { return 1; } return 0; }");
  const Function *FA = findFn(*A->IR, "f");
  const Function *FB = findFn(*B->IR, "f");
  ASSERT_NE(FA, nullptr);
  ASSERT_NE(FB, nullptr);
  PropagationContext Ctx;
  EXPECT_NE(PersistentCache::makeKey(*FA, VRPOptions(), Ctx),
            PersistentCache::makeKey(*FB, VRPOptions(), Ctx));
}

TEST(PersistentCacheTest, HitRestoresAfterCommitAndReopen) {
  std::string Path = tempPath("hit.bin");
  auto Program = compile(LoopSource);
  const Function *F = findFn(*Program->IR, "clamp");
  ASSERT_NE(F, nullptr);
  VRPOptions Opts;
  PropagationContext Ctx;
  std::string Key = PersistentCache::makeKey(*F, Opts, Ctx);
  FunctionVRPResult R = propagateRanges(*F, Opts);

  {
    auto PC = PersistentCache::open(Path, /*Verify=*/false);
    ASSERT_NE(PC, nullptr);
    FunctionVRPResult Out;
    EXPECT_FALSE(PC->lookup(Key, *F, Out)) << "store starts empty";
    PC->insert(Key, R);
    PC->commitScope();
  }
  auto PC = PersistentCache::open(Path, /*Verify=*/false);
  ASSERT_NE(PC, nullptr);
  FunctionVRPResult Out;
  std::string Raw;
  ASSERT_TRUE(PC->lookup(Key, *F, Out, &Raw));
  EXPECT_EQ(Raw, PersistentCache::serialize(R));
  EXPECT_EQ(PersistentCache::serialize(Out), Raw);
  std::remove(Path.c_str());
}

TEST(PersistentCacheTest, DiscardedScopeNeverReachesDisk) {
  std::string Path = tempPath("discard.bin");
  auto Program = compile(LoopSource);
  const Function *F = findFn(*Program->IR, "clamp");
  ASSERT_NE(F, nullptr);
  VRPOptions Opts;
  PropagationContext Ctx;
  std::string Key = PersistentCache::makeKey(*F, Opts, Ctx);
  {
    auto PC = PersistentCache::open(Path, /*Verify=*/false);
    PC->insert(Key, propagateRanges(*F, Opts));
    PC->discardScope();
    PC->commitScope(); // Commit after discard: nothing left to write.
  }
  auto PC = PersistentCache::open(Path, /*Verify=*/false);
  FunctionVRPResult Out;
  EXPECT_FALSE(PC->lookup(Key, *F, Out));
  std::remove(Path.c_str());
}

TEST(PersistentCacheTest, ExpungedFunctionIsDroppedBeforeCommit) {
  // The quarantine path: a function whose analysis failed its runtime
  // audit must not persist, even though it was inserted earlier in the
  // same benchmark scope.
  std::string Path = tempPath("expunge.bin");
  auto Program = compile(LoopSource);
  const Function *Clamp = findFn(*Program->IR, "clamp");
  const Function *Main = findFn(*Program->IR, "main");
  ASSERT_NE(Clamp, nullptr);
  ASSERT_NE(Main, nullptr);
  VRPOptions Opts;
  PropagationContext Ctx;
  std::string ClampKey = PersistentCache::makeKey(*Clamp, Opts, Ctx);
  std::string MainKey = PersistentCache::makeKey(*Main, Opts, Ctx);
  {
    auto PC = PersistentCache::open(Path, /*Verify=*/false);
    PC->insert(ClampKey, propagateRanges(*Clamp, Opts));
    PC->insert(MainKey, propagateRanges(*Main, Opts));
    PC->expunge("clamp");
    PC->commitScope();
  }
  auto PC = PersistentCache::open(Path, /*Verify=*/false);
  FunctionVRPResult Out;
  EXPECT_FALSE(PC->lookup(ClampKey, *Clamp, Out))
      << "expunged function must not persist";
  EXPECT_TRUE(PC->lookup(MainKey, *Main, Out))
      << "expunge must only drop the quarantined function";
  std::remove(Path.c_str());
}

TEST(PersistentCacheTest, OutOfRangeOffsetFailsToDeserialize) {
  auto Program = compile(LoopSource);
  const Function *F = findFn(*Program->IR, "clamp");
  ASSERT_NE(F, nullptr);
  std::string Bytes =
      PersistentCache::serialize(propagateRanges(*F, VRPOptions()));
  FunctionVRPResult Out;
  ASSERT_TRUE(PersistentCache::deserialize(Bytes, *F, Out));

  // Replace the first integer range's first lower-bound offset (the token
  // four past "R": count, probability, symbol, offset) with one past
  // INT64_MAX. A saturating parser would accept it as INT64_MAX.
  std::istringstream In(Bytes);
  std::string Line, Tampered;
  bool Replaced = false;
  while (std::getline(In, Line)) {
    std::istringstream Words(Line);
    std::vector<std::string> Toks{std::istream_iterator<std::string>(Words),
                                  std::istream_iterator<std::string>()};
    auto R = std::find(Toks.begin(), Toks.end(), "R");
    if (!Replaced && Toks.end() - R > 4) {
      *(R + 4) = "99999999999999999999";
      Replaced = true;
      Line.clear();
      for (const std::string &T : Toks)
        Line += (Line.empty() ? "" : " ") + T;
    }
    Tampered += Line + "\n";
  }
  ASSERT_TRUE(Replaced) << "clamp's result must hold an integer range";
  EXPECT_FALSE(PersistentCache::deserialize(Tampered, *F, Out))
      << "an out-of-range offset must fail, not saturate";
}

TEST(PersistentCacheTest, CorruptPayloadIsAMissNotAFailure) {
  std::string Path = tempPath("corrupt_payload.bin");
  auto Program = compile(LoopSource);
  const Function *F = findFn(*Program->IR, "clamp");
  ASSERT_NE(F, nullptr);
  std::string Key =
      PersistentCache::makeKey(*F, VRPOptions(), PropagationContext());
  {
    // A record whose store-level checksum is fine but whose payload is
    // not a valid serialized result (e.g. written by a buggy tool).
    auto S = store::ResultStore::open(Path, PersistentCache::FormatVersion);
    ASSERT_NE(S, nullptr);
    S->append(Key, "vrppc 1\nfn clamp\nthis is not a valid payload\n");
  }
  auto PC = PersistentCache::open(Path, /*Verify=*/false);
  ASSERT_NE(PC, nullptr);
  FunctionVRPResult Out;
  EXPECT_FALSE(PC->lookup(Key, *F, Out))
      << "an undecodable payload must degrade to a miss";
  std::remove(Path.c_str());
}

} // namespace
