//===- vrp/RangeArena.h - Arena/SoA storage for subrange sets ---*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Module-lifetime structure-of-arrays storage for canonical weighted
/// range sets. Every `ValueRange` of kind Ranges or FloatRanges holds a
/// 32-bit *slice id* into this arena instead of a heap vector, so the hot
/// kernels in RangeOps iterate flat columns instead of pointer-bearing
/// structs. There are two column families with separate id spaces:
/// integer subranges in six parallel columns `{Prob, LoSym, LoOff, HiSym,
/// HiOff, Stride}`, and FP intervals (docs/DOMAINS.md) in three `{Prob,
/// Lo, Hi}` (binary64 bounds) plus a per-slice NaN probability mass. Both
/// are instances of one slice table, which owns the column chunks, the
/// slice infos, the intern map, the cursors and the single intern loop; a
/// family supplies only its columns and its slice-level content.
///
/// Slices are *interned*: inserting content bitwise identical to an
/// earlier insert returns the existing id, so φ-heavy functions share
/// storage module-wide and range equality has an id-comparison fast path.
/// Integer bounds store an interned 32-bit symbol ordinal (0 = numeric)
/// rather than a `const Value *`, keeping rows pointer-free; the symbol
/// table maps ordinals back to SSA values on the slow path. Symbolic
/// slices get rows but are deliberately *not* deduped: their identity
/// involves SSA pointers, and heap address reuse across function
/// lifetimes would make cross-function identity — and with it the intern
/// counters — depend on the thread schedule. FP contents are always
/// pointer-free, so every FP slice interns; the NaN mass is part of its
/// content, so an FP slice id alone identifies the full lattice value
/// (the pure-NaN range is a rowless slice).
///
/// Concurrency: insertion takes a mutex; reads are lock-free. Columns are
/// chunked with stable addresses (a slice never straddles a chunk), so a
/// published slice id can be dereferenced without synchronizing with later
/// growth. Ids travel between threads only through already-synchronized
/// channels (task queues, guarded result maps), which carries the
/// happens-before needed for the row data itself.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_VRP_RANGEARENA_H
#define VRP_VRP_RANGEARENA_H

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace vrp {

class Value;
struct SubRange;

/// One weighted floating-point interval `P[Lo:Hi]` (closed, binary64).
/// Probability mass inside an interval is assumed uniform; NaN mass is
/// carried per *slice*, not per interval (see RangeArena::internFP).
struct FPInterval {
  double Prob = 0.0;
  double Lo = 0.0;
  double Hi = 0.0;

  FPInterval() = default;
  FPInterval(double Prob, double Lo, double Hi)
      : Prob(Prob), Lo(Lo), Hi(Hi) {}

  bool isSingleton() const { return Lo == Hi; }
};

class RangeArena {
public:
  /// Rows per chunk; also the maximum slice size. Matches the subrange
  /// count cap enforced by the PersistentCache deserializer, so any range
  /// the system can construct fits in one chunk.
  static constexpr uint32_t ChunkShift = 12;
  static constexpr uint32_t ChunkRows = 1u << ChunkShift;
  static constexpr uint32_t MaxSliceRows = ChunkRows;

  /// The process-wide arena. Ranges are interned module-wide (in fact
  /// process-wide): ids from different modules coexist harmlessly because
  /// interning keys on content.
  static RangeArena &global();

  /// SoA view of one integer slice: six parallel columns of length
  /// `Count`. `LoSym`/`HiSym` are symbol ordinals (0 = numeric bound).
  struct Rows {
    const double *Prob = nullptr;
    const int64_t *LoOff = nullptr;
    const int64_t *HiOff = nullptr;
    const int64_t *Stride = nullptr;
    const uint32_t *LoSym = nullptr;
    const uint32_t *HiSym = nullptr;
    uint32_t Count = 0;
    bool AllNumeric = true;
  };

  /// SoA view of one FP slice: three parallel columns of length `Count`
  /// plus the slice-level NaN probability mass.
  struct FPRows {
    const double *Prob = nullptr;
    const double *Lo = nullptr;
    const double *Hi = nullptr;
    uint32_t Count = 0;
    double NaNMass = 0.0;
  };

  /// Interns \p N subranges as one integer slice and returns its id;
  /// bitwise identical all-numeric content (probability compared by bit
  /// pattern) returns the existing id. N == 0 returns the empty slice 0.
  uint32_t intern(const SubRange *Subs, uint32_t N);

  /// Interns \p N weighted FP intervals plus the slice's NaN probability
  /// mass as one FP slice and returns its id. FP slice ids are a separate
  /// id space from integer slice ids (a ValueRange's kind disambiguates).
  /// \p NaNMass is part of the content (compared by bit pattern), making
  /// slice id -> NaN mass injective — which RangeOps' memo keys rely on.
  /// N == 0 with zero NaN mass returns the empty slice 0; N == 0 with
  /// positive NaN mass is the pure-NaN range, a rowless slice.
  uint32_t internFP(const FPInterval *Subs, uint32_t N, double NaNMass);

  /// Starts a new counting epoch (registered as a telemetry reset hook).
  /// The arena's contents outlive any one telemetry run, so the intern
  /// counters are *epoch-relative*: the first intern of a given content
  /// within an epoch counts as a miss (and contributes its payload
  /// bytes), exactly as it would in a fresh process, making a run's
  /// counter totals a function of that run's work alone.
  void beginEpoch();

  /// Column views of a slice. Slice 0 yields an empty view.
  Rows rows(uint32_t SliceId) const;
  FPRows fpRows(uint32_t SliceId) const;

  /// True when no bound of the integer slice is symbolic.
  bool sliceAllNumeric(uint32_t SliceId) const;

  /// Symbol ordinal -> SSA value (0 -> nullptr).
  const Value *symValue(uint32_t SymId) const;

private:
  RangeArena();
  RangeArena(const RangeArena &) = delete;
  RangeArena &operator=(const RangeArena &) = delete;

  static constexpr uint32_t MaxChunks = 1u << 15; // 2^27 rows / slices.

  /// A directory of lazily allocated chunks at stable addresses. Chunks
  /// are created under Mu and published with release; readers load them
  /// lock-free with acquire.
  template <typename Chunk> class Directory {
  public:
    Directory() {
      for (auto &C : Chunks)
        C.store(nullptr, std::memory_order_relaxed);
    }
    const Chunk &operator[](uint32_t Index) const {
      return *Chunks[Index].load(std::memory_order_acquire);
    }
    Chunk &materialize(uint32_t Index) { // Under Mu.
      Chunk *C = Chunks[Index].load(std::memory_order_acquire);
      if (!C) {
        C = new Chunk();
        Chunks[Index].store(C, std::memory_order_release);
      }
      return *C;
    }

  private:
    std::atomic<Chunk *> Chunks[MaxChunks];
  };

  /// One slot of T per id, ChunkRows slots per chunk.
  template <typename T> class Slots {
  public:
    const T &operator[](uint32_t Id) const {
      return Chunks[Id >> ChunkShift][Id & (ChunkRows - 1)];
    }
    T &slot(uint32_t Id) { // Under Mu.
      return Chunks.materialize(Id >> ChunkShift)[Id & (ChunkRows - 1)];
    }

  private:
    Directory<std::array<T, ChunkRows>> Chunks;
  };

  /// One column family's slice storage: column chunks (a slice never
  /// straddles one), per-slice infos, the content-hash intern map and the
  /// cursors. `Extra` is the family's slice-level content; it is compared
  /// by bit pattern and its zero value belongs to the empty slice 0.
  template <typename Columns, typename Extra> struct SliceTable {
    struct Info {
      uint32_t RowBegin = 0;
      /// Last epoch this content was counted in (written under Mu, never
      /// read by the lock-free accessors).
      uint32_t Epoch = 0;
      uint16_t Count = 0;
      Extra X{};
    };

    SliceTable() { Infos.slot(0); } // Slice 0 is the empty slice.

    /// The chunk holding a slice's rows; null for a rowless slice.
    const Columns *columns(const Info &Slice) const {
      return Slice.Count ? &ColumnChunks[Slice.RowBegin >> ChunkShift]
                         : nullptr;
    }

    /// The one intern loop (RangeArena.cpp): hash, candidate compare,
    /// epoch-relative counting, row and slice allocation. Under Mu.
    template <typename Content>
    uint32_t intern(const Content &C, uint32_t Epoch);

    Directory<Columns> ColumnChunks;
    Slots<Info> Infos;
    /// Content hash -> deduplicable slice ids with that hash.
    std::unordered_map<uint64_t, std::vector<uint32_t>> InternMap;
    uint32_t NextRow = 0;   ///< Row cursor (chunk-padded).
    uint32_t NextSlice = 1; ///< Slice 0 is reserved.
  };

  struct IntColumns {
    double Prob[ChunkRows];
    int64_t LoOff[ChunkRows];
    int64_t HiOff[ChunkRows];
    int64_t Stride[ChunkRows];
    uint32_t LoSym[ChunkRows];
    uint32_t HiSym[ChunkRows];
  };
  struct FPColumns {
    double Prob[ChunkRows];
    double Lo[ChunkRows];
    double Hi[ChunkRows];
  };
  /// What each family interns (RangeArena.cpp).
  struct IntContent;
  struct FPContent;

  uint32_t symId(const Value *V); // Under Mu.

  std::mutex Mu;
  uint32_t CurrentEpoch = 1; // Counting epoch; Info::Epoch 0 = stale.
  /// Integer family; its Extra is 1 when some bound is symbolic.
  SliceTable<IntColumns, uint16_t> Ints;
  /// FP family; its Extra is the slice's NaN probability mass.
  SliceTable<FPColumns, double> FPs;

  /// Symbol ordinal -> SSA value; ordinal 0 is the numeric bound.
  Slots<const Value *> Syms;
  std::unordered_map<const Value *, uint32_t> SymIds;
  uint32_t NextSym = 1;
  /// Scratch symbol-ordinal buffers for the slice being interned (guarded
  /// by Mu; member to avoid per-call allocation).
  std::vector<uint32_t> ScratchLoSym, ScratchHiSym;
};

} // namespace vrp

#endif // VRP_VRP_RANGEARENA_H
