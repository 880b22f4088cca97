//===- eval/Journal.h - Crash-resilient suite checkpoint --------*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The suite journal: an append-only JSONL checkpoint that makes long
/// evaluateSuite runs survivable. The first line is a header binding the
/// journal to its program list and analysis options (the *fingerprint*);
/// every completed benchmark then appends one line with its full
/// structured result, flushed immediately, in whatever order the
/// parallel fan-out finishes. After a crash or kill, `--resume` loads the
/// journal, skips every benchmark already present, and evaluates only
/// the remainder — and because doubles round-trip through hex-float
/// (`%a`) strings and curves are stored as their exact accumulator
/// state, the merged suite statistics are bit-identical to an
/// uninterrupted run.
///
/// The loader is deliberately forgiving: a torn final line (the crash
/// happened mid-write) or any line that fails to parse is counted and
/// skipped, never fatal; duplicate names keep the last occurrence; a
/// header whose fingerprint does not match (different programs or
/// options) invalidates the whole journal, forcing a clean recompute.
///
//===----------------------------------------------------------------------===//

#ifndef VRP_EVAL_JOURNAL_H
#define VRP_EVAL_JOURNAL_H

#include "eval/SuiteRunner.h"

#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vrp {
namespace journal {

/// The header fingerprint: a readable rendering of everything that must
/// match for journaled results to be reusable — the format version, the
/// benchmark list and evaluationIdentity(Opts) (vrp/Options.h), the same
/// option key the persistent cache and predictord's memo use.
std::string fingerprint(const std::vector<const BenchmarkProgram *> &Programs,
                        const VRPOptions &Opts);

/// One line of the journal, serialized/parsed below. Exposed for tests.
std::string serializeEvaluation(const BenchmarkEvaluation &Eval);
bool deserializeEvaluation(const std::string &Line, BenchmarkEvaluation &Out);

/// What load() recovered from an existing journal file.
struct LoadResult {
  /// Completed benchmarks by name (empty when the header did not match).
  std::map<std::string, BenchmarkEvaluation> Entries;
  /// True when the file existed and its header fingerprint matched.
  bool HeaderMatched = false;
  /// Torn or malformed entry lines skipped (never fatal).
  unsigned CorruptLines = 0;
};

/// Append-side handle. Thread-safe: the suite fan-out appends from
/// worker threads as benchmarks complete.
class SuiteJournal {
public:
  /// Parses \p Path against \p Fingerprint. A missing file yields an
  /// empty result with HeaderMatched = false.
  static LoadResult load(const std::string &Path,
                         const std::string &Fingerprint);

  /// Opens \p Path for writing. With \p Append the file is extended
  /// in place (its header must already match — pass load().HeaderMatched);
  /// otherwise it is truncated and a fresh header written. Returns null
  /// when the file cannot be opened.
  static std::unique_ptr<SuiteJournal> open(const std::string &Path,
                                            const std::string &Fingerprint,
                                            bool Append);

  /// Serializes \p Eval as one line and flushes it to disk.
  void append(const BenchmarkEvaluation &Eval);

private:
  SuiteJournal() = default;

  std::mutex M;
  std::ofstream OS;
};

} // namespace journal
} // namespace vrp

#endif // VRP_EVAL_JOURNAL_H
