//===- vrp/RangeArena.cpp - Arena/SoA storage for subrange sets ------------===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//

#include "vrp/RangeArena.h"

#include "support/Telemetry.h"
#include "vrp/ValueRange.h"

#include <cassert>
#include <cstring>

using namespace vrp;

namespace {

constexpr uint64_t FNVBasis = 14695981039346656037ull;

inline uint64_t fnv1a(uint64_t Hash, uint64_t Word) {
  // 64-bit FNV-1a over one word, byte at a time unrolled by multiplier.
  constexpr uint64_t Prime = 1099511628211ull;
  for (int I = 0; I < 8; ++I) {
    Hash ^= (Word >> (I * 8)) & 0xff;
    Hash *= Prime;
  }
  return Hash;
}

/// The bit pattern of \p V, zero-extended: contents hash and compare by
/// bits, so -0.0 and 0.0 (or two NaN payloads) are distinct.
template <typename T> inline uint64_t bits(T V) {
  static_assert(sizeof(T) <= sizeof(uint64_t), "content word too wide");
  uint64_t Bits = 0;
  std::memcpy(&Bits, &V, sizeof(V));
  return Bits;
}

} // namespace

/// The integer family: six columns whose symbol ordinals the arena has
/// resolved beforehand (ordinals are interned by pointer identity, so
/// identical content hashes identically). Only pointer-free (all-numeric)
/// content dedups: a symbolic content embeds ordinals keyed on SSA pointer
/// identity, and the allocator may reuse a dead function's addresses for a
/// later function's values — cross-function identity would then depend on
/// heap layout and hence on the thread schedule. Symbolic sets get rows
/// but no dedup; each insertion reports as a miss, so all three intern
/// counters stay functions of the work alone.
struct RangeArena::IntContent {
  /// Payload bytes of one row (the six column fields); chunk padding is
  /// excluded so the telemetry byte count depends only on the set of
  /// interned contents, not on interleaving order.
  static constexpr uint64_t RowBytes =
      sizeof(double) + 3 * sizeof(int64_t) + 2 * sizeof(uint32_t);
  static constexpr uint64_t SliceBytes = 0;

  const SubRange *Subs;
  const uint32_t *LoSym, *HiSym;
  uint32_t N;
  uint16_t X; ///< 1 when some bound is symbolic.

  bool dedups() const { return X == 0; }
  uint64_t seed() const { return FNVBasis ^ N; }
  std::array<uint64_t, 4> row(uint32_t I) const {
    return {bits(Subs[I].Prob), bits(Subs[I].Lo.Offset),
            bits(Subs[I].Hi.Offset), bits(Subs[I].Stride)};
  }
  static std::array<uint64_t, 4> stored(const IntColumns &C, uint32_t At) {
    return {bits(C.Prob[At]), bits(C.LoOff[At]), bits(C.HiOff[At]),
            bits(C.Stride[At])};
  }
  void store(IntColumns &C, uint32_t At, uint32_t I) const {
    C.Prob[At] = Subs[I].Prob;
    C.LoOff[At] = Subs[I].Lo.Offset;
    C.HiOff[At] = Subs[I].Hi.Offset;
    C.Stride[At] = Subs[I].Stride;
    C.LoSym[At] = LoSym[I];
    C.HiSym[At] = HiSym[I];
  }
};

/// The FP family: three double columns plus the NaN mass as slice-level
/// content. FP contents are pointer-free, so everything interns; two
/// slices with identical rows but different NaN mass get different ids,
/// keeping slice id -> lattice value injective (RangeOps' memo keys
/// depend on this).
struct RangeArena::FPContent {
  static constexpr uint64_t RowBytes = 3 * sizeof(double);
  static constexpr uint64_t SliceBytes = sizeof(double); // The NaN mass.

  const FPInterval *Subs;
  uint32_t N;
  double X; ///< NaN probability mass.

  bool dedups() const { return true; }
  uint64_t seed() const {
    return fnv1a(FNVBasis ^ (uint64_t(N) << 32), bits(X));
  }
  std::array<uint64_t, 3> row(uint32_t I) const {
    return {bits(Subs[I].Prob), bits(Subs[I].Lo), bits(Subs[I].Hi)};
  }
  static std::array<uint64_t, 3> stored(const FPColumns &C, uint32_t At) {
    return {bits(C.Prob[At]), bits(C.Lo[At]), bits(C.Hi[At])};
  }
  void store(FPColumns &C, uint32_t At, uint32_t I) const {
    C.Prob[At] = Subs[I].Prob;
    C.Lo[At] = Subs[I].Lo;
    C.Hi[At] = Subs[I].Hi;
  }
};

template <typename Columns, typename Extra>
template <typename Content>
uint32_t RangeArena::SliceTable<Columns, Extra>::intern(const Content &C,
                                                        uint32_t Epoch) {
  const uint32_t N = C.N;
  if (N == 0 && bits(C.X) == bits(Extra()))
    return 0;
  assert(N <= MaxSliceRows && "slice exceeds one arena chunk");
  const uint64_t PayloadBytes = Content::RowBytes * N + Content::SliceBytes;

  std::vector<uint32_t> *Bucket = nullptr;
  if (C.dedups()) {
    uint64_t Hash = C.seed();
    for (uint32_t I = 0; I < N; ++I)
      for (uint64_t Word : C.row(I))
        Hash = fnv1a(Hash, Word);

    Bucket = &InternMap[Hash];
    for (uint32_t Candidate : *Bucket) {
      Info &Slice = Infos.slot(Candidate);
      if (Slice.Count != N || bits(Slice.X) != bits(C.X))
        continue;
      const Columns *Cols = columns(Slice);
      uint32_t Base = Slice.RowBegin & (ChunkRows - 1);
      bool Same = true;
      for (uint32_t I = 0; I < N && Same; ++I)
        Same = Content::stored(*Cols, Base + I) == C.row(I);
      if (!Same)
        continue;
      // Epoch-relative counting: the first intern of this content since
      // the last run boundary reports as a miss with its payload bytes,
      // exactly as a fresh process would (see beginEpoch()).
      if (Slice.Epoch == Epoch) {
        telemetry::count(telemetry::Counter::RangeInternHits);
        return Candidate;
      }
      Slice.Epoch = Epoch;
      telemetry::count(telemetry::Counter::RangeInternMisses);
      telemetry::count(telemetry::Counter::RangeArenaPayloadBytes,
                       PayloadBytes);
      return Candidate;
    }
  }

  // New content: allocate rows (none for a rowless slice). A slice never
  // straddles a chunk — pad the cursor to the next chunk when the
  // remainder cannot hold N rows.
  uint32_t RowBegin = 0;
  if (N > 0) {
    if ((NextRow & (ChunkRows - 1)) + N > ChunkRows)
      NextRow = (NextRow + ChunkRows - 1) & ~(ChunkRows - 1);
    RowBegin = NextRow;
    assert((RowBegin >> ChunkShift) < MaxChunks && "range arena exhausted");
    Columns &Cols = ColumnChunks.materialize(RowBegin >> ChunkShift);
    uint32_t Base = RowBegin & (ChunkRows - 1);
    for (uint32_t I = 0; I < N; ++I)
      C.store(Cols, Base + I, I);
    NextRow = RowBegin + N;
  }

  uint32_t SliceId = NextSlice++;
  assert(SliceId < MaxChunks * ChunkRows && "slice table exhausted");
  Infos.slot(SliceId) = Info{RowBegin, Epoch, static_cast<uint16_t>(N), C.X};
  if (Bucket)
    Bucket->push_back(SliceId);

  telemetry::count(telemetry::Counter::RangeInternMisses);
  telemetry::count(telemetry::Counter::RangeArenaPayloadBytes, PayloadBytes);
  return SliceId;
}

RangeArena::RangeArena() {
  Syms.slot(0); // Ordinal 0 (the numeric bound) maps to nullptr.
}

RangeArena &RangeArena::global() {
  static RangeArena Arena;
  // Registered once, after the arena exists: a telemetry reset marks a
  // run boundary, so the intern counters restart epoch-relative counting.
  static bool HookRegistered =
      (telemetry::addResetHook([] { RangeArena::global().beginEpoch(); }),
       true);
  (void)HookRegistered;
  return Arena;
}

void RangeArena::beginEpoch() {
  std::lock_guard<std::mutex> Lock(Mu);
  ++CurrentEpoch;
}

uint32_t RangeArena::symId(const Value *V) {
  if (!V)
    return 0;
  auto [It, Inserted] = SymIds.try_emplace(V, NextSym);
  if (Inserted) {
    assert(NextSym < MaxChunks * ChunkRows && "symbol table exhausted");
    Syms.slot(NextSym++) = V;
  }
  return It->second;
}

const Value *RangeArena::symValue(uint32_t SymId) const {
  return Syms[SymId];
}

uint32_t RangeArena::intern(const SubRange *Subs, uint32_t N) {
  std::lock_guard<std::mutex> Lock(Mu);
  // Resolve symbol ordinals first: the content hash and the dedup compare
  // both key on ordinals.
  ScratchLoSym.resize(N);
  ScratchHiSym.resize(N);
  uint16_t Symbolic = 0;
  for (uint32_t I = 0; I < N; ++I) {
    ScratchLoSym[I] = symId(Subs[I].Lo.Sym);
    ScratchHiSym[I] = symId(Subs[I].Hi.Sym);
    Symbolic |= (ScratchLoSym[I] | ScratchHiSym[I]) != 0;
  }
  return Ints.intern(IntContent{Subs, ScratchLoSym.data(),
                                ScratchHiSym.data(), N, Symbolic},
                     CurrentEpoch);
}

uint32_t RangeArena::internFP(const FPInterval *Subs, uint32_t N,
                              double NaNMass) {
  std::lock_guard<std::mutex> Lock(Mu);
  return FPs.intern(FPContent{Subs, N, NaNMass}, CurrentEpoch);
}

RangeArena::Rows RangeArena::rows(uint32_t SliceId) const {
  const auto &Slice = Ints.Infos[SliceId];
  Rows R;
  R.Count = Slice.Count;
  R.AllNumeric = Slice.X == 0;
  if (const IntColumns *C = Ints.columns(Slice)) {
    uint32_t Base = Slice.RowBegin & (ChunkRows - 1);
    R.Prob = C->Prob + Base;
    R.LoOff = C->LoOff + Base;
    R.HiOff = C->HiOff + Base;
    R.Stride = C->Stride + Base;
    R.LoSym = C->LoSym + Base;
    R.HiSym = C->HiSym + Base;
  }
  return R;
}

RangeArena::FPRows RangeArena::fpRows(uint32_t SliceId) const {
  const auto &Slice = FPs.Infos[SliceId];
  FPRows R;
  R.Count = Slice.Count;
  R.NaNMass = Slice.X;
  if (const FPColumns *C = FPs.columns(Slice)) {
    uint32_t Base = Slice.RowBegin & (ChunkRows - 1);
    R.Prob = C->Prob + Base;
    R.Lo = C->Lo + Base;
    R.Hi = C->Hi + Base;
  }
  return R;
}

bool RangeArena::sliceAllNumeric(uint32_t SliceId) const {
  return Ints.Infos[SliceId].X == 0;
}
