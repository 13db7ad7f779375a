// EXPLAIN layer: plan introspection and estimate-vs-actual drift
// accounting (DESIGN.md Section 9).
//
// The paper's practical claim is that PartEnum/WtEnum win only when
// (n1, n2)/TH are tuned right, which is why Section 3.2 builds the
// F2-based parameter advisor — yet a prediction nobody checks is just a
// guess. ExplainReport closes the loop for one Join(JoinRequest)
// invocation (or an accumulated sequence of them):
//
//   * the chosen driver and parameters,
//   * the advisor's full search table (every candidate setting it
//     evaluated, with sample statistics, extrapolated signature /
//     collision counts, and the estimated F2 that ranked it), and
//   * the matching actuals from the run, with a drift ratio
//     (predicted / actual) per quantity.
//
// Determinism contract: everything ExplainJsonl() exports is kStable —
// derived from JoinStats and the advisor's deterministic sampled
// search, so the bytes are identical for every thread count and every
// run on the same input. Wall-clock seconds and histogram quantiles
// appear only in the human ExplainText() rendering.
//
// Null-sink contract (same as obs/join_telemetry.h): the drivers and
// the advisor record through the null-safe Record* seams below; a null
// report costs one pointer compare per call — no allocation, no clock
// read. Enforced by tests/obs/null_sink_alloc_test.cc.
//
// This header must stay free of src/core includes: core depends on obs,
// never the reverse. The advisor trace therefore speaks in plain labels
// and doubles, not PartEnumParams.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace ssjoin::obs {

class MetricsRegistry;

/// One candidate setting the parameter advisor evaluated. `label` is the
/// advisor's deterministic rendering of the setting ("n1=2,n2=6" /
/// "g=2,l=16").
struct AdvisorCandidate {
  std::string label;
  /// Signatures per set for this setting: Theorem 2's count for
  /// PartEnum, the table count l for LSH.
  uint64_t signatures_per_set = 0;
  /// Sample statistics: total deduplicated signatures S and pairwise
  /// collision count C over the sampled sets (C is a double because the
  /// AMS route estimates it).
  uint64_t sample_signatures = 0;
  double sample_collisions = 0;
  /// Extrapolations to the target input (self-join, both sides):
  /// 2 * S * scale signatures and C * scale^2 collisions, with
  /// scale = target_input_size / sample_size.
  double predicted_signatures = 0;
  double predicted_collisions = 0;
  /// The Section 3.2 estimate that ranked the candidate:
  /// predicted_signatures + predicted_collisions.
  double predicted_f2 = 0;
  /// True when the search stopped scoring this setting early: its
  /// estimate was already strictly above the best of the settings before
  /// it, so it could not win. S, C and the predicted_* fields then hold
  /// the partial lower bound at which it stopped.
  bool pruned = false;
  /// True for the setting Choose*() returned.
  bool chosen = false;
};

/// The advisor's full search table for one Choose* call sequence.
/// Attach one to AdvisorOptions::trace to capture it; repeated searches
/// append their candidates.
struct AdvisorTrace {
  /// "partenum" or "lsh" (the last search recorded).
  std::string method;
  /// Sets actually sampled (after clamping to the input size).
  uint64_t sample_size = 0;
  /// Sets the estimates were extrapolated to.
  uint64_t target_input_size = 0;
  /// True when collision counts came from the AMS sketch.
  bool used_ams_sketch = false;
  std::vector<AdvisorCandidate> candidates;

  /// The first candidate marked chosen (nullptr when none is).
  const AdvisorCandidate* Chosen() const;
};

/// One predicted-vs-actual quantity. Either side may be missing: the
/// advisor predicts signature-level quantities only, and a run records
/// actuals for quantities nothing predicted (results, false positives)
/// — those still render, without a ratio.
struct DriftEntry {
  std::string name;
  double predicted = 0;
  double actual = 0;
  bool has_predicted = false;
  bool has_actual = false;

  /// predicted / actual. 1.0 when both are zero (a correct prediction
  /// of nothing), +infinity when the actual is zero but the prediction
  /// was not. Meaningless (0) unless both sides are present.
  double Ratio() const;
};

/// One stage of the executed join, recorded by its ledger when the stage
/// closes (obs::Stage in obs/join_telemetry.h). `rows_in` /
/// `rows_out` are the deterministic row counts that flowed through the
/// stage (signatures, candidates, pairs — never batch counts, which
/// would vary with scheduling). `self_seconds` is the stage's own wall
/// time from the stage ledger: runtime-only, rendered by ExplainText()
/// and never by ExplainJsonl().
struct PlanOp {
  std::string op;      // stage tag, e.g. "siggen", "verify"
  std::string detail;  // variant note, e.g. "sorted" / "deferred bitmap"
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  double self_seconds = 0;
};

/// The assembled report. Plain data: copyable, no sinks, no locking —
/// attach one ExplainReport per join sequence from one thread.
struct ExplainReport {
  /// ExecutionModeName() of the (last) executed join.
  std::string mode;
  /// Stable key/value parameters (gamma, k, n1, ... — registered keys in
  /// obs/stability.h). Insertion-ordered; SetParam replaces an existing
  /// key in place.
  std::vector<std::pair<std::string, std::string>> params;
  AdvisorTrace advisor;
  /// The executed stage chain, source first. Replaced (not appended)
  /// by each join so an accumulated report shows the last plan; empty
  /// when the join ran without an explain report attached mid-plan.
  std::vector<PlanOp> plan;
  /// Drift table, in first-recorded order.
  std::vector<DriftEntry> drift;
  /// TripReasonName() of the guard trip that stopped the (last) join;
  /// empty for clean runs.
  std::string trip;
  /// Joins accumulated into this report.
  uint64_t joins = 0;

  // Runtime-only accounting (human rendering, never in ExplainJsonl).
  double siggen_seconds = 0;
  double candpair_seconds = 0;
  double postfilter_seconds = 0;

  void SetParam(std::string_view key, std::string_view value);
  /// Adds `value` to the predicted (resp. actual) side of `name`,
  /// creating the entry on first use. Accumulation lets a multi-join
  /// sequence (e.g. the advisor retry path) report totals.
  void Predict(std::string_view name, double value);
  void Actual(std::string_view name, double value);
  DriftEntry* Find(std::string_view name);
  const DriftEntry* Find(std::string_view name) const;
};

/// Null-safe seam for instrumented code: one pointer compare when no
/// report is attached (the null-sink contract).
inline void RecordActual(ExplainReport* report, std::string_view name,
                         double value) {
  if (report != nullptr) report->Actual(name, value);
}

/// Copies `trace` into report->advisor (appending candidates when
/// several searches ran) and turns its chosen candidate into
/// join.signatures / join.signature_collisions / join.f2 predictions.
/// Null-safe in `report`.
void AttachAdvisorTrace(ExplainReport* report, const AdvisorTrace& trace);

/// Deterministic JSONL rendering: one header line, then one line per
/// param / advisor candidate / drift entry. kStable data only — no
/// seconds, no thread counts; non-finite ratios are omitted rather than
/// emitted (they are not valid JSON).
std::string ExplainJsonl(const ExplainReport& report);

/// Human rendering: parameters, the executed plan with each stage's
/// self time, the advisor search table with the chosen row marked, the
/// drift table, then a runtime section (phase seconds and, when
/// `metrics` is given, p50/p95/p99 of the per-shard/chunk latency
/// histograms via HistogramQuantile).
std::string ExplainText(const ExplainReport& report,
                        const MetricsRegistry* metrics = nullptr);

Status WriteExplainJsonl(const ExplainReport& report,
                         const std::string& path);

}  // namespace ssjoin::obs
