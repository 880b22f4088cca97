//===- tests/vrp/RangeArenaTest.cpp - Interned slice storage tests --------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
// The process-wide range arena that every ValueRange's rows live in:
// content interning (bitwise, per family), the never-dedup rule for
// symbolic integer content, the NaN mass as FP slice identity, the
// no-straddle chunk layout, epoch-relative intern counters, and
// concurrent interning. The arena is process-global and outlives every
// test, so each test uses contents no other test builds.
//
//===----------------------------------------------------------------------===//

#include "ir/Module.h"
#include "support/Telemetry.h"
#include "vrp/RangeArena.h"
#include "vrp/ValueRange.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

using namespace vrp;
using telemetry::Counter;

namespace {

/// Telemetry is process-global; every test starts armed and clean and
/// leaves the subsystem disarmed.
class RangeArenaTest : public ::testing::Test {
protected:
  void SetUp() override {
    telemetry::setEnabled(true);
    telemetry::reset();
  }
  void TearDown() override {
    telemetry::reset();
    telemetry::setEnabled(false);
  }

  static uint64_t counter(Counter C) {
    return telemetry::snapshot().counter(C);
  }

  RangeArena &Arena = RangeArena::global();
};

/// \p N numeric rows whose offsets start at \p Base (unique per test).
std::vector<SubRange> numericRows(int64_t Base, uint32_t N) {
  std::vector<SubRange> Rows;
  for (uint32_t I = 0; I < N; ++I)
    Rows.emplace_back(1.0 / N, Bound(Base + 2 * I), Bound(Base + 2 * I + 1),
                      1);
  return Rows;
}

uint32_t intern(RangeArena &A, const std::vector<SubRange> &Rows) {
  return A.intern(Rows.data(), static_cast<uint32_t>(Rows.size()));
}

uint32_t internFP(RangeArena &A, const std::vector<FPInterval> &Rows,
                  double NaNMass) {
  return A.internFP(Rows.data(), static_cast<uint32_t>(Rows.size()), NaNMass);
}

TEST_F(RangeArenaTest, EqualContentGetsTheSameId) {
  std::vector<SubRange> Rows = numericRows(1000100, 3);
  uint32_t Id = intern(Arena, Rows);
  EXPECT_NE(Id, 0u);
  EXPECT_EQ(intern(Arena, Rows), Id);
  EXPECT_EQ(intern(Arena, numericRows(1000100, 3)), Id);

  RangeArena::Rows R = Arena.rows(Id);
  ASSERT_EQ(R.Count, 3u);
  EXPECT_TRUE(R.AllNumeric);
  EXPECT_TRUE(Arena.sliceAllNumeric(Id));
  for (uint32_t I = 0; I < 3; ++I) {
    EXPECT_EQ(R.Prob[I], Rows[I].Prob);
    EXPECT_EQ(R.LoOff[I], Rows[I].Lo.Offset);
    EXPECT_EQ(R.HiOff[I], Rows[I].Hi.Offset);
    EXPECT_EQ(R.Stride[I], Rows[I].Stride);
    EXPECT_EQ(R.LoSym[I], 0u);
    EXPECT_EQ(R.HiSym[I], 0u);
  }

  // The empty set is the reserved slice 0 in both families.
  EXPECT_EQ(Arena.intern(nullptr, 0), 0u);
  EXPECT_EQ(Arena.rows(0).Count, 0u);
  EXPECT_EQ(Arena.internFP(nullptr, 0, 0.0), 0u);
  EXPECT_EQ(Arena.fpRows(0).Count, 0u);
  EXPECT_EQ(Arena.fpRows(0).NaNMass, 0.0);
}

TEST_F(RangeArenaTest, ProbabilitiesCompareByBitPattern) {
  // 0.1 + 0.2 and 0.3 are equal to within any tolerance but differ in
  // their last bit: interning must keep them apart.
  double Sum = 0.1 + 0.2;
  ASSERT_NE(Sum, 0.3);
  std::vector<SubRange> A = {SubRange(Sum, Bound(1000200), Bound(1000201), 1)};
  std::vector<SubRange> B = {SubRange(0.3, Bound(1000200), Bound(1000201), 1)};
  EXPECT_NE(intern(Arena, A), intern(Arena, B));
  EXPECT_EQ(intern(Arena, A), intern(Arena, A));

  // FP bounds too: -0.0 and +0.0 compare equal as doubles but are
  // distinct contents.
  std::vector<FPInterval> Pos = {FPInterval(1.0, 0.0, 1000200.5)};
  std::vector<FPInterval> Neg = {FPInterval(1.0, -0.0, 1000200.5)};
  EXPECT_NE(internFP(Arena, Pos, 0.0), internFP(Arena, Neg, 0.0));
  EXPECT_EQ(internFP(Arena, Pos, 0.0), internFP(Arena, Pos, 0.0));
}

TEST_F(RangeArenaTest, SymbolicContentNeverDeduplicates) {
  Module M;
  Function *F = M.makeFunction("f", IRType::Int);
  Param *X = F->addParam(IRType::Int, "x");
  std::vector<SubRange> Rows = {
      SubRange(1.0, Bound(X, 0), Bound(X, 1000300), 1)};

  uint64_t Misses = counter(Counter::RangeInternMisses);
  uint64_t Hits = counter(Counter::RangeInternHits);
  uint32_t First = intern(Arena, Rows);
  uint32_t Second = intern(Arena, Rows);
  EXPECT_NE(First, 0u);
  EXPECT_NE(First, Second);
  EXPECT_EQ(counter(Counter::RangeInternMisses), Misses + 2);
  EXPECT_EQ(counter(Counter::RangeInternHits), Hits);

  RangeArena::Rows R = Arena.rows(Second);
  ASSERT_EQ(R.Count, 1u);
  EXPECT_FALSE(R.AllNumeric);
  EXPECT_FALSE(Arena.sliceAllNumeric(Second));
  EXPECT_EQ(Arena.symValue(R.LoSym[0]), X);
  EXPECT_EQ(Arena.symValue(R.HiSym[0]), X);
  EXPECT_EQ(R.LoSym[0], Arena.rows(First).LoSym[0])
      << "symbol ordinals are interned by pointer identity";
  EXPECT_EQ(R.HiOff[0], 1000300);
  EXPECT_EQ(Arena.symValue(0), nullptr);
}

TEST_F(RangeArenaTest, NaNMassIsPartOfAnFPSlicesIdentity) {
  std::vector<FPInterval> Rows = {FPInterval(0.5, 1000400.0, 1000401.0),
                                  FPInterval(0.25, 1000402.0, 1000403.0)};
  uint32_t Quarter = internFP(Arena, Rows, 0.25);
  uint32_t Eighth = internFP(Arena, Rows, 0.125);
  EXPECT_NE(Quarter, Eighth);
  EXPECT_EQ(internFP(Arena, Rows, 0.25), Quarter);

  RangeArena::FPRows R = Arena.fpRows(Eighth);
  ASSERT_EQ(R.Count, 2u);
  EXPECT_EQ(R.NaNMass, 0.125);
  EXPECT_EQ(R.Prob[1], 0.25);
  EXPECT_EQ(R.Lo[1], 1000402.0);
  EXPECT_EQ(R.Hi[1], 1000403.0);

  // The pure-NaN range is a rowless slice, interned like any other.
  uint32_t PureNaN = Arena.internFP(nullptr, 0, 1.0);
  EXPECT_NE(PureNaN, 0u);
  EXPECT_EQ(Arena.internFP(nullptr, 0, 1.0), PureNaN);
  RangeArena::FPRows NaNRows = Arena.fpRows(PureNaN);
  EXPECT_EQ(NaNRows.Count, 0u);
  EXPECT_EQ(NaNRows.NaNMass, 1.0);
  EXPECT_EQ(NaNRows.Prob, nullptr);
}

TEST_F(RangeArenaTest, SlicesNeverStraddleAChunk) {
  const uint32_t Full = RangeArena::ChunkRows;
  // A full-chunk slice leaves the row cursor on a chunk boundary, a
  // 4,095-row slice then fills all but one row of the next chunk, and a
  // 2-row slice cannot fit in that last row.
  intern(Arena, numericRows(2000000, Full));
  uint32_t Big = intern(Arena, numericRows(3000000, Full - 1));
  uint32_t Pair = intern(Arena, numericRows(4000000, 2));
  RangeArena::Rows B = Arena.rows(Big);
  RangeArena::Rows P = Arena.rows(Pair);
  ASSERT_EQ(B.Count, Full - 1);
  ASSERT_EQ(P.Count, 2u);
  EXPECT_EQ(B.LoOff[Full - 2], 3000000 + 2 * int64_t(Full - 2));
  for (uint32_t I = 0; I < 2; ++I) {
    EXPECT_EQ(P.Prob[I], 0.5);
    EXPECT_EQ(P.LoOff[I], 4000000 + 2 * int64_t(I));
    EXPECT_EQ(P.HiOff[I], 4000000 + 2 * int64_t(I) + 1);
    EXPECT_EQ(P.Stride[I], 1);
    EXPECT_EQ(P.LoSym[I], 0u);
    EXPECT_EQ(P.HiSym[I], 0u);
  }

  // The FP family follows the same layout rule.
  auto fpRows = [](double Base, uint32_t N) {
    std::vector<FPInterval> Rows;
    for (uint32_t I = 0; I < N; ++I)
      Rows.emplace_back(1.0 / N, Base + 2 * I, Base + 2 * I + 1);
    return Rows;
  };
  internFP(Arena, fpRows(2000000.5, Full), 0.0);
  internFP(Arena, fpRows(3000000.5, Full - 1), 0.0);
  uint32_t FPPair = internFP(Arena, fpRows(4000000.5, 2), 0.0);
  RangeArena::FPRows FP = Arena.fpRows(FPPair);
  ASSERT_EQ(FP.Count, 2u);
  for (uint32_t I = 0; I < 2; ++I) {
    EXPECT_EQ(FP.Prob[I], 0.5);
    EXPECT_EQ(FP.Lo[I], 4000000.5 + 2 * I);
    EXPECT_EQ(FP.Hi[I], 4000000.5 + 2 * I + 1);
  }
}

TEST_F(RangeArenaTest, InternCountersRestartAfterReset) {
  std::vector<SubRange> Rows = numericRows(1000500, 2);
  std::vector<FPInterval> FPRows = {FPInterval(1.0, 1000500.0, 1000501.0)};
  intern(Arena, Rows);
  internFP(Arena, FPRows, 0.5);

  // A reset begins a new epoch: the first intern of known content
  // reports exactly as it would in a fresh process.
  telemetry::reset();
  intern(Arena, Rows);
  EXPECT_EQ(counter(Counter::RangeInternMisses), 1u);
  EXPECT_EQ(counter(Counter::RangeInternHits), 0u);
  EXPECT_EQ(counter(Counter::RangeArenaPayloadBytes), 2u * 40u);
  intern(Arena, Rows);
  EXPECT_EQ(counter(Counter::RangeInternMisses), 1u);
  EXPECT_EQ(counter(Counter::RangeInternHits), 1u);
  EXPECT_EQ(counter(Counter::RangeArenaPayloadBytes), 2u * 40u);

  // FP slices: 24 bytes per row plus 8 for the slice's NaN mass.
  internFP(Arena, FPRows, 0.5);
  internFP(Arena, FPRows, 0.5);
  EXPECT_EQ(counter(Counter::RangeInternMisses), 2u);
  EXPECT_EQ(counter(Counter::RangeInternHits), 2u);
  EXPECT_EQ(counter(Counter::RangeArenaPayloadBytes), 2u * 40u + 24u + 8u);
}

TEST_F(RangeArenaTest, ConcurrentInternsAgreeOnIds) {
  constexpr unsigned NumThreads = 4;
  constexpr unsigned NumContents = 200;
  std::vector<std::vector<uint32_t>> Ids(
      NumThreads, std::vector<uint32_t>(2 * NumContents));
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      // Each thread walks the contents in its own rotation, so the
      // first insertion of each content races between threads.
      for (unsigned K = 0; K < NumContents; ++K) {
        unsigned C = (K + T * NumContents / NumThreads) % NumContents;
        Ids[T][C] = intern(Arena, numericRows(5000000 + 100 * C, 1 + C % 5));
        std::vector<FPInterval> FP = {
            FPInterval(1.0, 5000000.0 + C, 5000000.5 + C)};
        Ids[T][NumContents + C] = internFP(Arena, FP, 0.0);
        // Read back what another thread may have published.
        EXPECT_EQ(Arena.rows(Ids[T][C]).Count, 1 + C % 5);
        EXPECT_EQ(Arena.fpRows(Ids[T][NumContents + C]).Lo[0],
                  5000000.0 + C);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  for (unsigned T = 1; T < NumThreads; ++T)
    EXPECT_EQ(Ids[T], Ids[0]) << "thread " << T;
  std::vector<uint32_t> IntIds(Ids[0].begin(), Ids[0].begin() + NumContents);
  std::sort(IntIds.begin(), IntIds.end());
  EXPECT_EQ(std::unique(IntIds.begin(), IntIds.end()), IntIds.end())
      << "distinct contents must get distinct ids";
}

} // namespace
