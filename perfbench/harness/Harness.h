//===- perfbench/harness/Harness.h - Shared benchmark plumbing -*- C++ -*-===//
//
// Part of the VRP reproduction of Patterson, PLDI 1995.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every phase of the benchmark harness shares: command-line
/// options, wall-clock helpers, order statistics, the span recorder used
/// by traced runs, and the one-line JSON report each phase process prints
/// for perfbench/run.py to merge.
///
/// A phase process reports on stdout exactly one JSON object:
///
/// \code
///   {"phase": "suite", "attempted": N, "failed": M,
///    "checks": [{"name": ..., "ok": true, "detail": ...}],
///    "metrics": {"suite_cold_s": {"value": 0.31, "unit": "s/pass",
///                                 "n": 12, "p_high": ..., ...}},
///    "layers": {...}, "self_ms": {...}, "walls": {...}}
/// \endcode
///
/// Human-readable progress goes to stderr.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Parsed command line of one phase process.
struct PhaseOptions {
  std::string Phase;      ///< suite | module | serve
  uint64_t Seed = 1;
  double Seconds = 0.0;   ///< Measuring budget; 0 = the minimum passes.
  bool Trace = false;     ///< Add the traced replay and layer metrics.
  bool Smoke = false;     ///< Reduced sizes (smoke test only).
  std::string Part;       ///< module: "small" (1k) or "large" (2k + incr)
  bool Verify = true;     ///< module: run the cold reference check
  std::string WorkDir;    ///< Scratch files (caches, sockets, traces).
  std::string Daemon;     ///< predictord binary (serve phase).
};

double nowSeconds();

/// Seconds elapsed since \p Start.
double since(double Start);

/// Order statistics over a copy of \p V (linear interpolation between
/// closest ranks); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
double median(const std::vector<double> &V);

/// The highest of p90/p99/p99.9 with at least ten samples beyond it, or
/// 0 when the sample is too small for any (then only the median is
/// reported).
double highestSupportedPercentile(size_t N);

/// High-water resident set size of \p Pid (0 = this process) in MB, from
/// /proc/<pid>/status VmHWM; 0 when unreadable.
double peakRssMb(int Pid = 0);

/// One timing series: every sample, reported as median + sample count +
/// the highest percentile the samples support.
struct Series {
  std::vector<double> Samples;
  void add(double V) { Samples.push_back(V); }
  double median() const { return perfbench::median(Samples); }
};

/// One recorded span: a layer call made by the harness.
struct Span {
  std::string Name;   ///< "<layer>.<call>", e.g. "lang.parse".
  double Start = 0.0; ///< Seconds, steady clock.
  double End = 0.0;
  int Parent = -1;    ///< Index of the enclosing span, -1 at the root.
  uint64_t Request = 0; ///< Unit of work the span belongs to.
  /// True for calls the untraced run does not make (probes, audits);
  /// excluded when computing tracing overhead.
  bool Extra = false;
};

/// In-memory span recorder. Single-threaded use per instance except
/// record(), which is locked (the serve generator's two connections).
class Tracer {
public:
  /// RAII span around one layer call.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, uint64_t Request, bool Extra = false);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Index;
    int SavedParent;
  };

  /// Records a finished span with no parent (thread-safe).
  void record(const char *Name, double Start, double End, uint64_t Request);

  const std::vector<Span> &spans() const { return Spans; }

  /// Total duration of spans named \p Name (optionally only those of
  /// \p Request; 0 = any).
  double total(const std::string &Name, uint64_t Request = 0) const;
  /// Number of spans named \p Name.
  size_t count(const std::string &Name) const;
  /// Duration minus the part covered by child spans, per span.
  std::vector<double> selfTimes() const;
  /// Self time summed per layer (the span-name prefix before '.').
  std::map<std::string, double> selfByLayer() const;
  /// Duration of Extra spans (and their subtrees) from \p From on.
  double extraTime(double From) const;

  /// Writes every span as one JSON object per line.
  bool write(const std::string &Path) const;

private:
  std::mutex M;
  std::vector<Span> Spans;
  int Current = -1;
};

/// Accumulates one phase's report.
class Report {
public:
  explicit Report(std::string Phase) : Phase(std::move(Phase)) {}

  /// An end-to-end metric measured as a series of samples.
  void series(const std::string &Name, const std::string &Unit,
              const Series &S);
  /// An end-to-end metric with a single derived value over \p N samples.
  void value(const std::string &Name, const std::string &Unit, double V,
             size_t N = 1);
  /// A per-layer metric (traced runs).
  void layer(const std::string &Name, const std::string &Unit, double V);
  /// An output check; a failed check also counts one failed unit.
  void check(const std::string &Name, bool Ok, const std::string &Detail);
  /// Units of work attempted and failed (benchmarks, analyses, requests).
  void attempt(uint64_t N, uint64_t Failed = 0) {
    Attempted += N;
    Failures += Failed;
  }
  /// A wall-clock total perfbench/run.py combines across phase runs
  /// (pass_s untraced, traced_s and extra_s traced: tracing overhead).
  void wall(const std::string &Name, double Seconds) { Walls[Name] = Seconds; }
  void selfTimes(const std::map<std::string, double> &ByLayer) {
    SelfMs = ByLayer;
  }

  bool allChecksPassed() const;
  /// Prints the JSON line on stdout and a summary on stderr.
  void emit() const;

private:
  struct Metric {
    std::string Unit;
    double Value = 0.0;
    size_t N = 1;
    double PHighQ = 0.0; ///< Quantile level of PHigh (0 = none).
    double PHigh = 0.0;
  };
  struct Check {
    std::string Name;
    bool Ok = false;
    std::string Detail;
  };
  std::string Phase;
  std::map<std::string, Metric> Metrics;
  std::map<std::string, Metric> Layers;
  std::map<std::string, double> SelfMs;
  std::map<std::string, double> Walls;
  std::vector<Check> Checks;
  uint64_t Attempted = 0;
  uint64_t Failures = 0;
};

/// Share of \p Wall (which began at \p From) covered by the self time of
/// layer spans: everything except the harness's own "bench.*" glue.
double layerCoverage(const Tracer &T, double From, double Wall);

std::string jsonString(const std::string &S);
std::string jsonNumber(double V);

/// FNV-1a accumulation of raw bytes (fingerprints of outputs).
uint64_t hashBytes(uint64_t H, const void *Data, size_t Size);
uint64_t hashDouble(uint64_t H, double V);
uint64_t hashU64(uint64_t H, uint64_t V);
uint64_t hashString(uint64_t H, const std::string &S);
constexpr uint64_t HashBasis = 0xcbf29ce484222325ULL;

std::string hex64(uint64_t V);

int runSuitePhase(const PhaseOptions &Opts);
int runModulePhase(const PhaseOptions &Opts);
int runServePhase(const PhaseOptions &Opts);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
