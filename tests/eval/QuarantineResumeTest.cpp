//===- tests/eval/QuarantineResumeTest.cpp - Sentinel + journal e2e -------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// End-to-end contracts of the soundness sentinel and the crash-resilient
// journal. Quarantine: k of N benchmarks with injected unsound ranges
// are detected, demoted to the Ball–Larus fallback, and reported — while
// the suite completes all N and the untouched N−k results stay bitwise
// identical. Supervisor: a transient worker failure is retried once and
// recovered; a persistent one stays a structured failure. Journal: every
// field of a BenchmarkEvaluation round-trips exactly (hex-float doubles,
// CDF accumulator state), corrupt lines and fingerprint mismatches are
// tolerated, and a resume after a mid-suite kill yields non-timing
// stats bitwise identical to an uninterrupted run at 1 and 4 threads.
//
//===----------------------------------------------------------------------===//

#include "benchsuite/Programs.h"
#include "eval/Journal.h"
#include "eval/Reporting.h"
#include "eval/SuiteRunner.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace vrp;

namespace {

std::vector<const BenchmarkProgram *> firstPrograms(size_t N) {
  std::vector<const BenchmarkProgram *> All = allPrograms();
  EXPECT_GE(All.size(), N);
  All.resize(N);
  return All;
}

VRPOptions auditOptions(unsigned Threads = 1) {
  VRPOptions Opts;
  Opts.Interprocedural = true;
  Opts.Audit = true;
  Opts.Threads = Threads;
  return Opts;
}

void expectIdenticalCurves(const ErrorCdf &A, const ErrorCdf &B,
                           const std::string &What) {
  EXPECT_EQ(A.meanError(), B.meanError()) << What;
  EXPECT_EQ(A.totalWeight(), B.totalWeight()) << What;
  for (unsigned Bucket = 0; Bucket < ErrorCdf::NumBuckets; ++Bucket)
    EXPECT_EQ(A.fractionWithin(Bucket), B.fractionWithin(Bucket))
        << What << " bucket " << Bucket;
}

void expectIdenticalEvaluations(const BenchmarkEvaluation &A,
                                const BenchmarkEvaluation &B) {
  // The canonical journal line covers every deterministic field —
  // equality there IS bitwise identity of the evaluation.
  EXPECT_EQ(journal::serializeEvaluation(A), journal::serializeEvaluation(B))
      << A.Name;
}

/// Non-timing stats JSON with a zeroed telemetry snapshot: everything
/// deterministic the suite computed, nothing process-global.
std::string statsJson(const SuiteEvaluation &Suite) {
  std::ostringstream OS;
  writeSuiteStatsJson(Suite, telemetry::Snapshot{}, OS,
                      /*IncludeTimings=*/false);
  return OS.str();
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "quarantine_resume_" + Name;
}

class QuarantineResumeTest : public ::testing::Test {
protected:
  void TearDown() override { fault::reset(); }
};

//===----------------------------------------------------------------------===//
// Quarantine
//===----------------------------------------------------------------------===//

TEST_F(QuarantineResumeTest, TwoOfEightQuarantinedSuiteReportsAllEight) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(8);

  // Victims with a single branchy function (the Rng helper is
  // straight-line), so quarantining it demotes the whole benchmark to
  // the Ball–Larus fallback.
  const std::string VictimA = Programs[0]->Name; // sort
  const std::string VictimB = Programs[4]->Name; // rle

  fault::reset();
  SuiteEvaluation Clean = evaluateSuite(Programs, auditOptions());
  ASSERT_TRUE(Clean.Failures.empty());
  EXPECT_EQ(Clean.SoundnessViolations, 0u);
  EXPECT_EQ(Clean.QuarantinedFunctions, 0u);
  EXPECT_GT(Clean.AuditChecks, 0u);

  for (unsigned Threads : {1u, 4u}) {
    ASSERT_TRUE(fault::configure("unsound-range@" + VictimA +
                                 ":0,unsound-range@" + VictimB + ":0"));
    SuiteEvaluation Suite = evaluateSuite(Programs, auditOptions(Threads));
    fault::reset();

    // All 8 benchmarks completed; none FAILED — quarantine degrades,
    // never aborts.
    ASSERT_EQ(Suite.Benchmarks.size(), 8u) << "Threads=" << Threads;
    EXPECT_TRUE(Suite.Failures.empty()) << "Threads=" << Threads;
    EXPECT_EQ(Suite.QuarantinedFunctions, 2u) << "Threads=" << Threads;
    EXPECT_GT(Suite.SoundnessViolations, 0u);
    ASSERT_EQ(Suite.Quarantines.size(), 2u);
    for (const quarantine::Record &Q : Suite.Quarantines) {
      EXPECT_EQ(Q.Why, quarantine::Reason::SoundnessViolation);
      EXPECT_TRUE(Q.Context == VictimA || Q.Context == VictimB) << Q.str();
      EXPECT_GT(Q.Violations, 0u);
    }

    for (size_t I = 0; I < Programs.size(); ++I) {
      const BenchmarkEvaluation &B = Suite.Benchmarks[I];
      ASSERT_TRUE(B.Ok) << B.Name << ": " << B.Error;
      if (B.Name == VictimA || B.Name == VictimB) {
        EXPECT_GT(B.SoundnessViolations, 0u) << B.Name;
        EXPECT_EQ(B.QuarantinedFunctions, 1u) << B.Name;
        // Discarded VRP predictions: the predictor collapses onto its
        // Ball–Larus fallback and claims no range predictions.
        EXPECT_EQ(B.VRPRangeFraction, 0.0) << B.Name;
        const auto &VRP = B.Curves.at(PredictorKind::VRP);
        const auto &BL = B.Curves.at(PredictorKind::BallLarus);
        expectIdenticalCurves(VRP.first, BL.first, B.Name + " unweighted");
        expectIdenticalCurves(VRP.second, BL.second, B.Name + " weighted");
      } else {
        // Untouched benchmarks are bitwise identical to the clean run.
        EXPECT_EQ(B.SoundnessViolations, 0u) << B.Name;
        EXPECT_EQ(B.QuarantinedFunctions, 0u) << B.Name;
        expectIdenticalEvaluations(Clean.Benchmarks[I], B);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Supervisor retry
//===----------------------------------------------------------------------===//

TEST_F(QuarantineResumeTest, TransientWorkerFaultIsRetriedAndRecovered) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(4);
  const std::string Victim = Programs[1]->Name;

  VRPOptions Opts;
  Opts.Interprocedural = true;
  SuiteRunConfig Config;
  Config.SupervisorRetry = true;

  // A counted spec fires on the first attempt only: the retry runs past
  // the trigger and succeeds.
  ASSERT_TRUE(fault::configure("worker@" + Victim + ":0"));
  SuiteEvaluation Suite = evaluateSuite(Programs, Opts, Config);
  fault::reset();

  ASSERT_EQ(Suite.Benchmarks.size(), 4u);
  EXPECT_TRUE(Suite.Failures.empty());
  EXPECT_EQ(Suite.SupervisorRetries, 1u);
  for (const BenchmarkEvaluation &B : Suite.Benchmarks) {
    ASSERT_TRUE(B.Ok) << B.Name << ": " << B.Error;
    EXPECT_EQ(B.Retried, B.Name == Victim) << B.Name;
  }
}

TEST_F(QuarantineResumeTest, PersistentWorkerFaultStaysAStructuredFailure) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(4);
  const std::string Victim = Programs[2]->Name;

  VRPOptions Opts;
  Opts.Interprocedural = true;
  SuiteRunConfig Config;
  Config.SupervisorRetry = true;

  // An every-occurrence spec fails the retry too: one structured failure,
  // marked retried, and the other three benchmarks unharmed.
  ASSERT_TRUE(fault::configure("worker@" + Victim + ":*"));
  SuiteEvaluation Suite = evaluateSuite(Programs, Opts, Config);
  fault::reset();

  ASSERT_EQ(Suite.Benchmarks.size(), 4u);
  ASSERT_EQ(Suite.Failures.size(), 1u);
  EXPECT_EQ(Suite.Failures.front().Benchmark, Victim);
  EXPECT_EQ(Suite.SupervisorRetries, 1u);
  for (const BenchmarkEvaluation &B : Suite.Benchmarks) {
    if (B.Name == Victim) {
      EXPECT_FALSE(B.Ok);
      EXPECT_TRUE(B.Retried);
      ASSERT_TRUE(B.Failure.has_value());
      EXPECT_NE(B.Failure->Message.find("injected"), std::string::npos)
          << B.Failure->str();
    } else {
      EXPECT_TRUE(B.Ok) << B.Name << ": " << B.Error;
      EXPECT_FALSE(B.Retried);
    }
  }
}

//===----------------------------------------------------------------------===//
// Journal round-trip
//===----------------------------------------------------------------------===//

TEST_F(QuarantineResumeTest, EvaluationSerializationRoundTripsExactly) {
  // Successful evaluation with audit fields populated.
  const BenchmarkProgram *P = firstPrograms(1).front();
  BenchmarkEvaluation Eval = evaluateProgram(*P, auditOptions());
  ASSERT_TRUE(Eval.Ok) << Eval.Error;

  std::string Line = journal::serializeEvaluation(Eval);
  BenchmarkEvaluation Back;
  ASSERT_TRUE(journal::deserializeEvaluation(Line, Back)) << Line;

  // Canonical-form identity: re-serializing the parsed value reproduces
  // the exact line, so every field — including hex-float doubles and the
  // raw CDF accumulator state — survived.
  EXPECT_EQ(journal::serializeEvaluation(Back), Line);
  EXPECT_EQ(Back.Name, Eval.Name);
  EXPECT_EQ(Back.RefSteps, Eval.RefSteps);
  EXPECT_EQ(Back.VRPRangeFraction, Eval.VRPRangeFraction);
  EXPECT_EQ(Back.AuditChecks, Eval.AuditChecks);
  ASSERT_EQ(Back.Curves.size(), Eval.Curves.size());
  for (const auto &[Kind, Pair] : Eval.Curves) {
    auto It = Back.Curves.find(Kind);
    ASSERT_NE(It, Back.Curves.end());
    expectIdenticalCurves(Pair.first, It->second.first, "unweighted");
    expectIdenticalCurves(Pair.second, It->second.second, "weighted");
  }
}

TEST_F(QuarantineResumeTest, FailedEvaluationRoundTripsWithFailureInfo) {
  const BenchmarkProgram *P = firstPrograms(1).front();
  ASSERT_TRUE(fault::configure("parse:0"));
  VRPOptions Opts;
  BenchmarkEvaluation Eval = evaluateProgram(*P, Opts);
  fault::reset();
  ASSERT_FALSE(Eval.Ok);
  ASSERT_TRUE(Eval.Failure.has_value());

  std::string Line = journal::serializeEvaluation(Eval);
  BenchmarkEvaluation Back;
  ASSERT_TRUE(journal::deserializeEvaluation(Line, Back)) << Line;
  EXPECT_EQ(journal::serializeEvaluation(Back), Line);
  EXPECT_FALSE(Back.Ok);
  ASSERT_TRUE(Back.Failure.has_value());
  EXPECT_EQ(Back.Failure->Category, Eval.Failure->Category);
  EXPECT_EQ(Back.Failure->Stage, Eval.Failure->Stage);
  EXPECT_EQ(Back.Failure->Message, Eval.Failure->Message);
}

TEST_F(QuarantineResumeTest, LoaderSkipsCorruptLinesAndTornTail) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(3);
  VRPOptions Opts;
  Opts.Interprocedural = true;
  std::string FP = journal::fingerprint(Programs, Opts);
  std::string Path = tempPath("corrupt.jsonl");

  {
    auto J = journal::SuiteJournal::open(Path, FP, /*Append=*/false);
    ASSERT_NE(J, nullptr);
    for (const BenchmarkProgram *P : Programs)
      J->append(evaluateProgram(*P, Opts));
  }
  // Vandalize: insert garbage mid-file and a torn final line (a crash
  // mid-write).
  {
    std::ofstream OS(Path, std::ios::app);
    OS << "not json at all\n";
    OS << "{\"name\": \"zz\", \"ok\": tru"; // no newline: torn write
  }

  journal::LoadResult L = journal::SuiteJournal::load(Path, FP);
  EXPECT_TRUE(L.HeaderMatched);
  EXPECT_EQ(L.Entries.size(), 3u);
  EXPECT_EQ(L.CorruptLines, 2u);
  for (const BenchmarkProgram *P : Programs)
    EXPECT_EQ(L.Entries.count(P->Name), 1u) << P->Name;
  std::remove(Path.c_str());
}

TEST_F(QuarantineResumeTest, OutOfRangeCountsAreCorruptNotReused) {
  // A count that does not fit its field is a corrupt line, never a
  // wrapped or truncated value: "-1" must not become 2^64-1 and 2^32
  // must not become 0 in a 32-bit field.
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(3);
  VRPOptions Opts;
  Opts.Interprocedural = true;
  std::string FP = journal::fingerprint(Programs, Opts);
  std::string Path = tempPath("ranges.jsonl");

  auto replaceField = [](std::string Line, const std::string &Key,
                         const std::string &Value) {
    std::string Tag = "\"" + Key + "\":";
    size_t At = Line.find(Tag);
    EXPECT_NE(At, std::string::npos) << Key;
    At += Tag.size();
    size_t End = Line.find_first_of(",]}", At);
    return Line.replace(At, End - At, Value);
  };
  SuiteEvaluation Fresh = evaluateSuite(Programs, Opts);
  ASSERT_EQ(Fresh.Benchmarks.size(), 3u);
  {
    auto J = journal::SuiteJournal::open(Path, FP, /*Append=*/false);
    ASSERT_NE(J, nullptr);
    J->append(Fresh.Benchmarks[0]);
  }
  {
    std::ofstream OS(Path, std::ios::app);
    OS << replaceField(journal::serializeEvaluation(Fresh.Benchmarks[1]),
                       "ref_steps", "-1")
       << "\n";
    OS << replaceField(journal::serializeEvaluation(Fresh.Benchmarks[2]),
                       "static_branches", "4294967296")
       << "\n";
  }

  journal::LoadResult L = journal::SuiteJournal::load(Path, FP);
  EXPECT_TRUE(L.HeaderMatched);
  EXPECT_EQ(L.CorruptLines, 2u);
  ASSERT_EQ(L.Entries.size(), 1u);
  EXPECT_EQ(L.Entries.count(Programs[0]->Name), 1u);

  SuiteRunConfig Config;
  Config.JournalPath = Path;
  Config.Resume = true;
  SuiteEvaluation Resumed = evaluateSuite(Programs, Opts, Config);
  EXPECT_EQ(Resumed.JournalReused, 1u);
  EXPECT_EQ(statsJson(Resumed), statsJson(Fresh));
  std::remove(Path.c_str());
}

TEST_F(QuarantineResumeTest, FingerprintMismatchInvalidatesJournal) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(2);
  VRPOptions Opts;
  Opts.Interprocedural = true;
  std::string Path = tempPath("fingerprint.jsonl");
  {
    auto J = journal::SuiteJournal::open(
        Path, journal::fingerprint(Programs, Opts), /*Append=*/false);
    ASSERT_NE(J, nullptr);
    J->append(evaluateProgram(*Programs[0], Opts));
  }

  // Different analysis options -> different fingerprint -> nothing
  // reusable; resuming against it must recompute from scratch.
  VRPOptions Other = Opts;
  Other.MaxSubRanges += 1;
  journal::LoadResult L = journal::SuiteJournal::load(
      Path, journal::fingerprint(Programs, Other));
  EXPECT_FALSE(L.HeaderMatched);
  EXPECT_TRUE(L.Entries.empty());

  // Threads must NOT participate: results are thread-count-invariant.
  VRPOptions Threaded = Opts;
  Threaded.Threads = 7;
  EXPECT_EQ(journal::fingerprint(Programs, Opts),
            journal::fingerprint(Programs, Threaded));
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Kill-and-resume
//===----------------------------------------------------------------------===//

TEST_F(QuarantineResumeTest, ResumeAfterMidSuiteKillIsBitwiseIdentical) {
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(8);
  VRPOptions Opts = auditOptions();

  // The uninterrupted reference run.
  SuiteEvaluation Reference = evaluateSuite(Programs, Opts);
  ASSERT_TRUE(Reference.Failures.empty());
  std::string ReferenceJson = statsJson(Reference);

  for (unsigned Threads : {1u, 4u}) {
    VRPOptions RunOpts = auditOptions(Threads);
    std::string Path =
        tempPath("resume_t" + std::to_string(Threads) + ".jsonl");

    // "Crash" after three benchmarks: journal only a prefix, then add a
    // torn line exactly as a killed writer would leave.
    std::string FP = journal::fingerprint(Programs, RunOpts);
    {
      auto J = journal::SuiteJournal::open(Path, FP, /*Append=*/false);
      ASSERT_NE(J, nullptr);
      for (size_t I = 0; I < 3; ++I)
        J->append(Reference.Benchmarks[I]);
    }
    {
      std::ofstream OS(Path, std::ios::app);
      OS << "{\"name\": \"" << Programs[3]->Name << "\", \"ok\": ";
    }

    SuiteRunConfig Config;
    Config.JournalPath = Path;
    Config.Resume = true;
    Config.SupervisorRetry = true;
    SuiteEvaluation Resumed = evaluateSuite(Programs, RunOpts, Config);

    EXPECT_EQ(Resumed.JournalReused, 3u) << "Threads=" << Threads;
    ASSERT_TRUE(Resumed.Failures.empty()) << "Threads=" << Threads;
    // Merged stats are bitwise identical to the uninterrupted run —
    // including every hex-float fraction and CDF bucket.
    EXPECT_EQ(statsJson(Resumed), ReferenceJson) << "Threads=" << Threads;
    for (auto &[Kind, Cdf] : Reference.AveragedUnweighted)
      expectIdenticalCurves(Cdf, Resumed.AveragedUnweighted.at(Kind),
                            std::string("averaged unweighted ") +
                                predictorName(Kind));
    for (auto &[Kind, Cdf] : Reference.AveragedWeighted)
      expectIdenticalCurves(Cdf, Resumed.AveragedWeighted.at(Kind),
                            std::string("averaged weighted ") +
                                predictorName(Kind));
    std::remove(Path.c_str());
  }
}

TEST_F(QuarantineResumeTest, ResumeJournalsTheRemainderForTheNextCrash) {
  // After a resumed run completes, the journal must hold ALL benchmarks
  // (reused prefix untouched, remainder appended): a second resume would
  // reuse everything.
  std::vector<const BenchmarkProgram *> Programs = firstPrograms(4);
  VRPOptions Opts;
  Opts.Interprocedural = true;
  std::string Path = tempPath("rejournal.jsonl");
  std::string FP = journal::fingerprint(Programs, Opts);

  SuiteEvaluation Full = evaluateSuite(Programs, Opts);
  {
    auto J = journal::SuiteJournal::open(Path, FP, /*Append=*/false);
    ASSERT_NE(J, nullptr);
    J->append(Full.Benchmarks[0]);
  }
  SuiteRunConfig Config;
  Config.JournalPath = Path;
  Config.Resume = true;
  SuiteEvaluation First = evaluateSuite(Programs, Opts, Config);
  EXPECT_EQ(First.JournalReused, 1u);

  journal::LoadResult L = journal::SuiteJournal::load(Path, FP);
  EXPECT_TRUE(L.HeaderMatched);
  EXPECT_EQ(L.Entries.size(), 4u);
  EXPECT_EQ(L.CorruptLines, 0u);

  SuiteEvaluation Second = evaluateSuite(Programs, Opts, Config);
  EXPECT_EQ(Second.JournalReused, 4u);
  EXPECT_EQ(statsJson(First), statsJson(Second));
  std::remove(Path.c_str());
}

} // namespace
