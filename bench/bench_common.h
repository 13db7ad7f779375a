// Shared plumbing for the per-figure/table bench harnesses.
//
// Each bench binary regenerates one table or figure of the paper's
// Section 8 in a stable text format: the workload, the parameter grid,
// and the reported series match the paper; absolute numbers reflect this
// machine. Input sizes default to a scaled-down grid that preserves the
// paper's 1x/5x/10x ratios; set SSJOIN_BENCH_SCALE=<float> to grow or
// shrink everything (1.0 = defaults, 50.0 ~= the paper's original sizes).

#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/ssjoin.h"
#include "data/collection.h"
#include "data/generators.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/tokenizer.h"

namespace ssjoin::bench {

/// Global size multiplier from SSJOIN_BENCH_SCALE (default 1.0).
inline double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("SSJOIN_BENCH_SCALE");
    if (!env) return 1.0;
    double v = std::atof(env);
    return v > 0 ? v : 1.0;
  }();
  return scale;
}

inline size_t Scaled(size_t base) {
  double v = static_cast<double>(base) * Scale();
  return v < 1 ? 1 : static_cast<size_t>(v);
}

/// The paper's input-size grid (100K / 500K / 1M), scaled down 50x by
/// default so the full suite runs in minutes.
inline std::vector<size_t> PaperSizeGrid() {
  return {Scaled(2000), Scaled(10000), Scaled(20000)};
}

/// The paper's similarity-threshold grid.
inline std::vector<double> PaperGammaGrid() { return {0.9, 0.85, 0.8}; }

/// Tokenized synthetic address data (stand-in for the paper's proprietary
/// address dataset; see DESIGN.md Section 1). The paper also ran the
/// jaccard experiments on DBLP with "qualitatively similar" results; set
/// SSJOIN_BENCH_DATA=dblp to rerun every address-based bench on the
/// DBLP-like workload instead.
inline SetCollection AddressTokenSets(size_t n, uint64_t seed = 7) {
  const char* kind = std::getenv("SSJOIN_BENCH_DATA");
  WordTokenizer tokenizer;
  if (kind && std::string(kind) == "dblp") {
    DblpOptions options;
    options.num_strings = n;
    options.duplicate_fraction = 0.10;
    options.max_typos = 2;
    options.seed = seed;
    return tokenizer.TokenizeAll(GenerateDblpStrings(options));
  }
  AddressOptions options;
  options.num_strings = n;
  options.duplicate_fraction = 0.10;
  options.max_typos = 3;
  options.seed = seed;
  return tokenizer.TokenizeAll(GenerateAddressStrings(options));
}

/// Raw address strings for the edit-distance benches.
inline std::vector<std::string> AddressStrings(size_t n,
                                               uint64_t seed = 7) {
  AddressOptions options;
  options.num_strings = n;
  options.duplicate_fraction = 0.10;
  options.max_typos = 3;
  options.seed = seed;
  return GenerateAddressStrings(options);
}

/// The paper's synthetic workload (Section 8.1): equi-sized 50-element
/// sets from a 10000-element domain plus planted near-duplicates.
inline SetCollection SyntheticSets(size_t n, uint64_t seed = 8) {
  UniformSetOptions options;
  options.num_sets = n;
  options.set_size = 50;
  options.domain_size = 10000;
  options.similar_fraction = 0.02;
  options.mutations = 2;
  options.seed = seed;
  return GenerateUniformSets(options);
}

/// One row of phase-time output (the stacked bars of Figures 12/18/19).
inline void PrintTimeHeader() {
  std::printf("%-10s %-9s %-22s %10s %10s %10s %10s %12s %10s\n", "size",
              "gamma/k", "algorithm", "siggen_s", "candpair_s", "post_s",
              "total_s", "candidates", "results");
}

inline void PrintTimeRow(size_t size, const std::string& threshold,
                         const std::string& algo, const JoinStats& stats) {
  std::printf("%-10zu %-9s %-22s %10.3f %10.3f %10.3f %10.3f %12llu %10llu\n",
              size, threshold.c_str(), algo.c_str(), stats.siggen_seconds,
              stats.candpair_seconds, stats.postfilter_seconds,
              stats.TotalSeconds(),
              static_cast<unsigned long long>(stats.candidates),
              static_cast<unsigned long long>(stats.results));
  std::fflush(stdout);  // ssjoin-lint: allow(no-unchecked-io) progress display
}

inline void PrintF2Header() {
  std::printf("%-10s %-9s %-22s %14s %14s %14s\n", "size", "gamma",
              "algorithm", "signatures", "collisions", "F2");
}

inline void PrintF2Row(size_t size, const std::string& threshold,
                       const std::string& algo, const JoinStats& stats) {
  std::printf(
      "%-10zu %-9s %-22s %14llu %14llu %14llu\n", size, threshold.c_str(),
      algo.c_str(),
      static_cast<unsigned long long>(stats.signatures_r +
                                      stats.signatures_s),
      static_cast<unsigned long long>(stats.signature_collisions),
      static_cast<unsigned long long>(stats.F2()));
  std::fflush(stdout);  // ssjoin-lint: allow(no-unchecked-io) progress display
}

/// Minimal command-line parsing for the bench harnesses (kept free of
/// the tools/flags dependency): recognizes `--threads N` / `--threads=N`,
/// `--json-out PATH` / `--json-out=PATH`, the guardrail limits
/// `--deadline-ms N`, `--memory-budget-mb N`, `--max-candidate-ratio F`
/// (0 = off; see core/execution_guard.h), and the observability outputs
/// `--report-out PATH` (structured run report, "" = bench default),
/// `--trace-out PATH` (.jsonl = deterministic stream, else Chrome
/// trace_event JSON), `--metrics-out PATH` and `--explain-out PATH`
/// (accumulated EXPLAIN drift report, obs/explain.h); anything else
/// aborts with a usage message so typos never silently run the default
/// workload.
struct BenchFlags {
  /// Join parallelism (JoinOptions::num_threads semantics: 0 = one per
  /// core). Only meaningful when threads_given.
  size_t threads = 1;
  bool threads_given = false;
  /// Override for the machine-readable output path ("" = bench default).
  std::string json_out;
  /// Guardrail limits forwarded to an ExecutionGuard when guard_given.
  ExecutionBudget budget;
  bool guard_given = false;
  /// Override for the structured run report path ("" = bench default).
  std::string report_out;
  /// Extra trace / metrics exports ("" = off).
  std::string trace_out;
  std::string metrics_out;
  /// Accumulated EXPLAIN report export ("" = off; the report is only
  /// attached to the joins when requested, keeping the measured path on
  /// the null-sink contract).
  std::string explain_out;
};

BenchFlags ParseBenchFlags(int argc, char** argv);

/// Shared execution context for a bench binary: owns the run's Tracer and
/// MetricsRegistry, seeds JoinOptions from the flags, routes every
/// signature join through the unified Join() facade, and writes the
/// structured run report on Finish(). This replaces the per-bench
/// JoinOptions / sink plumbing — a bench builds workloads and calls
/// SelfJoin / BinaryJoin, nothing else.
class BenchRun {
 public:
  /// `bench_name` names the default report file,
  /// BENCH_<bench_name>_report.jsonl.
  BenchRun(std::string bench_name, const BenchFlags& flags);

  BenchRun(const BenchRun&) = delete;
  BenchRun& operator=(const BenchRun&) = delete;

  /// JoinOptions seeded from --threads with this run's sinks attached.
  JoinOptions Options();

  /// Join through the facade with Options(). The JoinOptions overloads
  /// are for benches that vary threads or attach a guard per call — the
  /// run's sinks are (re-)attached on top of the supplied options.
  JoinResult SelfJoin(const SetCollection& input,
                      const SignatureScheme& scheme,
                      const Predicate& predicate);
  JoinResult SelfJoin(const SetCollection& input,
                      const SignatureScheme& scheme,
                      const Predicate& predicate, JoinOptions options);
  JoinResult BinaryJoin(const SetCollection& r, const SetCollection& s,
                        const SignatureScheme& scheme,
                        const Predicate& predicate);
  JoinResult BinaryJoin(const SetCollection& r, const SetCollection& s,
                        const SignatureScheme& scheme,
                        const Predicate& predicate, JoinOptions options);

  /// The run's sinks, for joins that do not go through the facade
  /// (string joins, DBMS plans).
  obs::Tracer* tracer() { return &tracer_; }
  obs::MetricsRegistry* metrics() { return &metrics_; }

  /// The run's accumulated EXPLAIN report — attached to every join when
  /// --explain-out was given, nullptr otherwise (null-sink contract).
  /// Benches that tune with the advisor can AttachAdvisorTrace into it.
  obs::ExplainReport* explain() {
    return flags_.explain_out.empty() ? nullptr : &explain_;
  }

  /// Writes the structured run report — one deterministic JSONL file with
  /// the stable spans then the stable metrics — to --report-out (default
  /// BENCH_<bench_name>_report.jsonl), plus any --trace-out /
  /// --metrics-out exports. Returns false (after printing to stderr) on
  /// I/O error.
  bool Finish();

 private:
  JoinResult Run(const SetCollection* left, const SetCollection* right,
                 const SignatureScheme& scheme, const Predicate& predicate,
                 ExecutionMode mode, JoinOptions options);

  std::string name_;
  BenchFlags flags_;
  obs::Tracer tracer_;
  obs::MetricsRegistry metrics_;
  obs::ExplainReport explain_;
};

/// One measured point of a parallel-scaling trajectory: a full join at
/// `threads` workers plus its wall-clock seconds (phase times live in
/// `stats`; `wall_seconds` is the end-to-end stopwatch around the call).
struct ScalingPoint {
  size_t threads = 0;
  double wall_seconds = 0;
  JoinStats stats;
};

/// Writes the machine-readable perf trajectory consumed by future PRs to
/// track regressions: one JSON object with the workload identity and a
/// `points` array carrying threads, per-phase seconds, wall seconds, and
/// speedup relative to the threads == 1 point. Returns false (after
/// printing to stderr) if the file cannot be written.
bool WriteParallelScalingJson(const std::string& path,
                              const std::string& workload,
                              size_t input_size,
                              const std::vector<ScalingPoint>& points);

/// Least-squares slope of log(y) vs log(x) — the scaling exponent read
/// off the paper's log-log Figure 14.
inline double LogLogSlope(const std::vector<double>& x,
                          const std::vector<double>& y) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  size_t n = x.size();
  for (size_t i = 0; i < n; ++i) {
    double lx = std::log(x[i]);
    double ly = std::log(y[i] > 0 ? y[i] : 1.0);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  double denom = static_cast<double>(n) * sxx - sx * sx;
  return denom == 0 ? 0 : (static_cast<double>(n) * sxy - sx * sy) / denom;
}

}  // namespace ssjoin::bench
