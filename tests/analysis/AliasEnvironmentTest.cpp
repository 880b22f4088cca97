//===- tests/analysis/AliasEnvironmentTest.cpp - Shared alias census ------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The module-level AliasEnvironment is a pure hoisting of the store
// census the one-shot AliasInfo queries build per call: for every
// function, a summary or environment text built against one shared
// environment must equal the one-shot result exactly — same loads, same
// forwarding sources, same candidates with bitwise-equal weights, same
// dependency lists, same text.
//
//===----------------------------------------------------------------------===//

#include "analysis/AliasAnalysis.h"
#include "benchsuite/Programs.h"
#include "benchsuite/Synthetic.h"
#include "driver/Pipeline.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace vrp;

namespace {

bool sameBits(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }

void expectSameSummary(const Function &F, const AliasInfo &Shared,
                       const AliasInfo &OneShot) {
  for (const auto &B : F.blocks())
    for (const auto &I : B->instructions()) {
      if (const auto *St = dyn_cast<StoreInst>(I.get())) {
        EXPECT_EQ(Shared.dependentLoads(St), OneShot.dependentLoads(St))
            << F.name();
        continue;
      }
      const auto *L = dyn_cast<LoadInst>(I.get());
      if (!L)
        continue;
      const LoadAliasInfo *S = Shared.infoFor(L);
      const LoadAliasInfo *O = OneShot.infoFor(L);
      ASSERT_EQ(S == nullptr, O == nullptr) << F.name();
      if (!S)
        continue;
      EXPECT_EQ(S->Forwarded, O->Forwarded) << F.name();
      ASSERT_EQ(S->Candidates.size(), O->Candidates.size()) << F.name();
      for (size_t C = 0; C < S->Candidates.size(); ++C) {
        EXPECT_EQ(S->Candidates[C].Stored, O->Candidates[C].Stored);
        EXPECT_TRUE(sameBits(S->Candidates[C].Weight, O->Candidates[C].Weight));
        EXPECT_TRUE(
            sameBits(S->Candidates[C].InitValue, O->Candidates[C].InitValue));
      }
    }
}

/// Checks every function of \p M; returns how many loads had a summary
/// so callers can assert the comparison was not vacuous.
unsigned expectSharedEqualsOneShot(const Module &M) {
  AliasEnvironment Env(M);
  unsigned Summarized = 0;
  for (const auto &F : M.functions()) {
    AliasInfo Shared = AliasInfo::analyze(*F, Env);
    expectSameSummary(*F, Shared, AliasInfo::analyze(*F));
    EXPECT_EQ(AliasInfo::environmentText(*F, Env),
              AliasInfo::environmentText(*F))
        << F->name();
    for (const auto &B : F->blocks())
      for (const auto &I : B->instructions())
        if (const auto *L = dyn_cast<LoadInst>(I.get()))
          Summarized += Shared.infoFor(L) != nullptr;
  }
  return Summarized;
}

std::unique_ptr<CompiledProgram> compile(const std::string &Source) {
  DiagnosticEngine Diags;
  auto C = compileToSSA(Source, Diags, VRPOptions());
  EXPECT_TRUE(C) << Diags.firstError();
  return C;
}

TEST(AliasEnvironmentTest, SharedEqualsOneShotOnSyntheticModule) {
  SyntheticModuleConfig Cfg;
  Cfg.NumFunctions = 120;
  Cfg.Seed = 5;
  auto C = compile(makeSyntheticModule(Cfg));
  ASSERT_TRUE(C);
  expectSharedEqualsOneShot(*C->IR);
}

TEST(AliasEnvironmentTest, SharedEqualsOneShotOnSuitePrograms) {
  std::vector<const BenchmarkProgram *> Programs = allPrograms();
  EXPECT_EQ(Programs.size(), 19u);
  unsigned Summarized = 0;
  for (const BenchmarkProgram *P : Programs) {
    SCOPED_TRACE(P->Name);
    auto C = compile(P->Source);
    ASSERT_TRUE(C);
    Summarized += expectSharedEqualsOneShot(*C->IR);
  }
  EXPECT_GT(Summarized, 0u);
}

TEST(AliasEnvironmentTest, ExclusivityFollowsWriters) {
  auto C = compile(R"(
    var never = 1;
    var mine = 2;
    var shared = 3;
    fn a() { mine = 5; shared = 6; return never + mine + shared; }
    fn b() { shared = 7; return shared; }
    fn main() { return a() + b(); }
  )");
  ASSERT_TRUE(C);
  const Module &M = *C->IR;
  AliasEnvironment Env(M);
  const Function *A = M.findFunction("a");
  const Function *B = M.findFunction("b");
  auto object = [&](const std::string &Name) -> const MemoryObject * {
    for (const auto &O : M.memoryObjects())
      if (O->name() == Name)
        return O.get();
    return nullptr;
  };
  const MemoryObject *Never = object("never");
  const MemoryObject *Mine = object("mine");
  const MemoryObject *Shared = object("shared");
  ASSERT_TRUE(Never && Mine && Shared);
  // Never stored: only the initializer exists, for every reader.
  EXPECT_TRUE(Env.exclusiveTo(Never, A));
  EXPECT_TRUE(Env.exclusiveTo(Never, B));
  // One writer: exclusive to it alone.
  EXPECT_TRUE(Env.exclusiveTo(Mine, A));
  EXPECT_FALSE(Env.exclusiveTo(Mine, B));
  // Two writers: exclusive to nobody.
  EXPECT_FALSE(Env.exclusiveTo(Shared, A));
  EXPECT_FALSE(Env.exclusiveTo(Shared, B));
}

} // namespace
