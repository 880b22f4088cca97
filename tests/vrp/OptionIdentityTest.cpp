//===- tests/vrp/OptionIdentityTest.cpp - One option-identity key --------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// Every memo in the system (persistent cache, suite journal, predictord's
// response memo) is keyed through vrp/Options' resultIdentity or
// evaluationIdentity. This test flips each VRPOptions field in turn and
// requires every key to change, except for the fields a key documents
// as irrelevant to it. A field added to VRPOptions changes its size and
// trips the static_assert below until the flip list (and the identity
// functions) cover it.
//
//===----------------------------------------------------------------------===//

#include "analysis/PersistentCache.h"
#include "benchsuite/Programs.h"
#include "driver/Pipeline.h"
#include "eval/Journal.h"
#include "serve/Service.h"
#include "vrp/Options.h"
#include "vrp/Propagation.h"
#include "vrp/Trace.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>

using namespace vrp;

namespace {

// Adding a field to either struct breaks these on LP64 targets: add the
// field to Flips below, then to resultIdentity or evaluationIdentity (or
// to an exempt list, with the reason).
static_assert(sizeof(void *) != 8 || sizeof(ResourceBudget) == 24,
              "ResourceBudget changed: update Flips and vrp/Options.cpp");
static_assert(sizeof(void *) != 8 || sizeof(VRPOptions) == 88,
              "VRPOptions changed: update Flips and vrp/Options.cpp");

struct Flip {
  const char *Field;
  std::function<void(VRPOptions &)> Apply;
};

const std::vector<Flip> &flips() {
  static const std::vector<Flip> All = {
      {"MaxSubRanges", [](VRPOptions &O) { O.MaxSubRanges += 1; }},
      {"EnableSymbolicRanges",
       [](VRPOptions &O) { O.EnableSymbolicRanges = !O.EnableSymbolicRanges; }},
      {"EnableDerivation",
       [](VRPOptions &O) { O.EnableDerivation = !O.EnableDerivation; }},
      {"EnableAssertions",
       [](VRPOptions &O) { O.EnableAssertions = !O.EnableAssertions; }},
      {"WidenThreshold", [](VRPOptions &O) { O.WidenThreshold += 1; }},
      {"BranchUpdateLimit", [](VRPOptions &O) { O.BranchUpdateLimit += 1; }},
      {"FlowVisitLimit", [](VRPOptions &O) { O.FlowVisitLimit += 1; }},
      {"DerivationRetryLimit",
       [](VRPOptions &O) { O.DerivationRetryLimit += 1; }},
      {"AssumedSymbolicCount",
       [](VRPOptions &O) { O.AssumedSymbolicCount *= 2; }},
      {"EnableFPRanges",
       [](VRPOptions &O) { O.EnableFPRanges = !O.EnableFPRanges; }},
      {"EnableAliasRanges",
       [](VRPOptions &O) { O.EnableAliasRanges = !O.EnableAliasRanges; }},
      {"Interprocedural",
       [](VRPOptions &O) { O.Interprocedural = !O.Interprocedural; }},
      {"EnableCloning",
       [](VRPOptions &O) { O.EnableCloning = !O.EnableCloning; }},
      {"Threads", [](VRPOptions &O) { O.Threads += 3; }},
      {"Budget.PropagationStepLimit",
       [](VRPOptions &O) { O.Budget.PropagationStepLimit += 1000; }},
      {"Budget.InterpreterStepLimit",
       [](VRPOptions &O) { O.Budget.InterpreterStepLimit += 1000; }},
      {"Budget.DeadlineMs",
       [](VRPOptions &O) { O.Budget.DeadlineMs += 250; }},
      {"Audit", [](VRPOptions &O) { O.Audit = !O.Audit; }},
      {"ProbTolerance", [](VRPOptions &O) { O.ProbTolerance /= 2; }},
      {"Trace",
       [](VRPOptions &O) {
         static trace::TraceSink Sink;
         O.Trace = &Sink;
       }},
  };
  return All;
}

/// Fields no key may depend on: results are thread-count invariant and
/// tracing only observes.
const std::set<std::string> &exemptEverywhere() {
  static const std::set<std::string> S = {"Threads", "Trace"};
  return S;
}

/// Fields that change what an evaluation does with a propagation result,
/// never the result itself: the per-function result keys ignore them.
const std::set<std::string> &evaluationOnly() {
  static const std::set<std::string> S = {"Audit",
                                          "Budget.InterpreterStepLimit"};
  return S;
}

const char *Source = R"(
var table[8];

fn scale(x) {
  if (x < 0) {
    return 0;
  }
  return x * 3;
}

fn main() {
  var total = 0;
  for (var i = 0; i < 8; i = i + 1) {
    table[i] = scale(i - 2);
    total = total + table[i];
  }
  return total;
}
)";

/// Every key under test, rendered for one options value.
struct Keys {
  std::string Result;
  std::string Evaluation;
  std::string PCache;
  std::string Journal;
  uint64_t Memo = 0;
};

class OptionIdentityTest : public ::testing::Test {
protected:
  void SetUp() override {
    DiagnosticEngine Diags;
    auto Compiled = compileProgram(Source, Diags);
    ASSERT_TRUE(Compiled.ok());
    Program = std::move(Compiled.value());
    F = Program->IR->functions().front().get();
    Programs = allPrograms();
    Programs.resize(2);
    Req.Method = "predict";
    Req.Source = Source;
  }

  Keys keys(const VRPOptions &O) const {
    Keys K;
    K.Result = resultIdentity(O);
    K.Evaluation = evaluationIdentity(O);
    K.PCache = PersistentCache::makeKey(
        *F, O, PropagationContext::intraprocedural());
    K.Journal = journal::fingerprint(Programs, O);
    K.Memo = serve::memoKey(Req, O);
    return K;
  }

  std::unique_ptr<CompiledProgram> Program;
  const Function *F = nullptr;
  std::vector<const BenchmarkProgram *> Programs;
  serve::Request Req;
};

TEST_F(OptionIdentityTest, EveryFieldFlipChangesEveryKeyThatDependsOnIt) {
  VRPOptions Base;
  Keys B = keys(Base);
  for (const Flip &Fl : flips()) {
    VRPOptions O = Base;
    Fl.Apply(O);
    Keys K = keys(O);
    bool Exempt = exemptEverywhere().count(Fl.Field) != 0;
    bool EvalOnly = evaluationOnly().count(Fl.Field) != 0;
    bool ResultKeysChange = !Exempt && !EvalOnly;
    bool EvalKeysChange = !Exempt;
    EXPECT_EQ(ResultKeysChange, K.Result != B.Result) << Fl.Field;
    EXPECT_EQ(ResultKeysChange, K.PCache != B.PCache) << Fl.Field;
    EXPECT_EQ(EvalKeysChange, K.Evaluation != B.Evaluation) << Fl.Field;
    EXPECT_EQ(EvalKeysChange, K.Journal != B.Journal) << Fl.Field;
    EXPECT_EQ(EvalKeysChange, K.Memo != B.Memo) << Fl.Field;
  }
}

TEST_F(OptionIdentityTest, ResultIdentityKeepsThePersistentCacheKeyBytes) {
  // The persistent cache's options component hashes exactly this text;
  // changing it would orphan every store written before.
  VRPOptions O;
  EXPECT_EQ("4|1|1|1|24|48|16|512|0x1.9p+6|0|0|0x1.0c6f7a0b5ed8dp-20|0|0|1|1",
            resultIdentity(O));
  EXPECT_EQ(resultIdentity(O) + "|0|0", evaluationIdentity(O));
}

TEST_F(OptionIdentityTest, ServedRequestOptionsFeedTheMemoKey) {
  serve::ServiceConfig Config;
  serve::Request R = Req;
  VRPOptions Plain = serve::requestOptions(R, Config, false);
  VRPOptions Degraded = serve::requestOptions(R, Config, true);
  EXPECT_EQ(1u, Degraded.Budget.PropagationStepLimit);
  EXPECT_NE(serve::memoKey(R, Plain), serve::memoKey(R, Degraded));

  R.StepLimit = 77;
  EXPECT_NE(serve::memoKey(R, Plain),
            serve::memoKey(R, serve::requestOptions(R, Config, false)));

  // The daemon's fan-out width is not part of the answer.
  serve::ServiceConfig Wide = Config;
  Wide.AnalysisThreads = 4;
  EXPECT_EQ(serve::memoKey(Req, Plain),
            serve::memoKey(Req, serve::requestOptions(Req, Wide, false)));
}

} // namespace
