// Per-join instrumentation handle: the one seam through which the join
// drivers open spans and publish metrics.
//
// JoinTelemetry wraps an optional Tracer and an optional MetricsRegistry
// (either or both may be null — the null-sink default). Its contract:
//
//   * Null sinks cost nothing: every call is a branch on a null pointer;
//     no allocation, no locking. The zero-allocation property is
//     enforced by tests/obs.
//   * One clock per stage: every driver times its stages only with the
//     Stage ledger below, one per stage — Join()'s stage sequence, the
//     DBMS plans' siggen/candgen/verify steps, and the string join's
//     qgram and edit_check steps around its Join(). JoinStats seconds,
//     the stage spans and pipeline.<tag>.* are all derived from it.
//   * Stable vs runtime recording: stage spans are kStable (the
//     deterministic join skeleton); Sample() opens kRuntime spans for
//     shard/chunk detail and feeds latency histograms.
//
// Construction opens the root span; destruction closes it.
//
// Thread-safety (DESIGN.md Section 10): JoinTelemetry itself holds no
// lock because it owns no shared mutable state — root_ is written once
// in the constructor, and current_span_ is *control-thread-confined*:
// only the Stage ledgers, on the driver's control thread between
// parallel regions, write it. Worker threads may use Sample(), Event(),
// Attr(), AddCount() and SetGauge() freely: those
// delegate to the Tracer and MetricsRegistry sinks, whose capabilities
// (their internal util::Mutex, see obs/trace.h and obs/metrics.h)
// serialize the actual mutation. There is deliberately no annotation
// that could express "confined to the control thread"; the parallel
// drivers enforce it structurally by never passing the JoinTelemetry
// handle into ParallelFor bodies — only raw Tracer*/Histogram* handles.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "obs/stability.h"
#include "obs/trace.h"
#include "util/status.h"
#include "util/timer.h"

namespace ssjoin::obs {

struct ExplainReport;

class JoinTelemetry {
 public:
  /// Either sink may be null. `root_name` names the root span (the
  /// drivers use "join" with a "mode" attribute so the stable span
  /// skeleton is identical for every execution path of one mode).
  JoinTelemetry(Tracer* tracer, MetricsRegistry* metrics,
                std::string_view root_name);
  ~JoinTelemetry();

  JoinTelemetry(const JoinTelemetry&) = delete;
  JoinTelemetry& operator=(const JoinTelemetry&) = delete;

  Tracer* tracer() const { return tracer_; }
  MetricsRegistry* metrics() const { return metrics_; }
  SpanId root() const { return root_; }
  bool tracing() const { return tracer_ != nullptr; }

  /// RAII sampling scope for runtime detail: opens a kRuntime span (when
  /// tracing) under the current span — the span of the running stage,
  /// or else the root — and, when `latency` is non-null, records the
  /// elapsed microseconds into it on destruction. Safe to use from
  /// worker threads (lane disambiguates concurrent scopes).
  class SampleScope {
   public:
    SampleScope(JoinTelemetry* telemetry, Histogram* latency, SpanId span)
        : telemetry_(telemetry), latency_(latency), span_(span) {}
    SampleScope(const SampleScope&) = delete;
    SampleScope& operator=(const SampleScope&) = delete;
    ~SampleScope();

    SpanId span() const { return span_; }

   private:
    JoinTelemetry* telemetry_;
    Histogram* latency_;
    SpanId span_;
    Stopwatch watch_;
  };

  SampleScope Sample(std::string_view name, Histogram* latency = nullptr,
                     uint32_t lane = 0);

  /// Root-span helpers (all no-ops without the corresponding sink).
  void Event(std::string_view name, std::string_view detail);
  void Attr(std::string_view key, uint64_t value);
  void Attr(std::string_view key, double value);
  void Attr(std::string_view key, std::string_view value);

  /// Metric helpers (no-ops without a registry). These take the registry
  /// mutex — fine for end-of-join accounting, not for per-item loops
  /// (cache a Counter*/Histogram* for those).
  void AddCount(std::string_view name, uint64_t delta,
                Stability stability = Stability::kStable);
  void SetGauge(std::string_view name, double value,
                Stability stability = Stability::kStable);

 private:
  friend class Stage;  // swaps current_span_ around each section

  Tracer* tracer_;
  MetricsRegistry* metrics_;
  SpanId root_ = kNoSpan;
  // Parent of Sample() spans; control-thread confined (see the file
  // comment).
  SpanId current_span_ = kNoSpan;
};

/// One stage's ledger (DESIGN.md Section 14): the one record of a
/// stage's time, rows and span, kept by every driver — Join()'s stage
/// sequence (core/pipeline/stages.h), the DBMS plans' three steps and
/// the string join's two wrapper steps. Every call into the stage is one
/// Timed section, so the stage's time and batch count are accounted
/// whatever sinks are attached; `rows_in`/`rows_out` are the
/// deterministic row totals that flowed through it (signatures,
/// candidates, pairs; never batch counts, which vary with scheduling).
/// Everything else derives from it when the stage closes: the JoinStats
/// seconds field it feeds, its EXPLAIN plan row and, when bound, the
/// published counters and the stage span.
///
/// Bind() attaches the run's sinks. With a MetricsRegistry it publishes
/// four counters named "pipeline.<tag>." + {batches, rows_in, rows_out,
/// ns}: row totals are kStable (functions of input and stage sequence,
/// exactly equal at any thread count / spill mode), batch counts and
/// time kRuntime (batch granularity is thread-count-dependent, ns is
/// wall clock). With a Tracer it opens one kStable span named by the tag
/// under the join root; during a timed section that span is the parent
/// of runtime Sample() spans, and Close() ends it with the stable
/// rows_in/rows_out attributes.
///
/// The clock reads live here, in the obs layer, so src/core stays clean
/// under the `no-raw-timing` lint. Stages run one after another, never
/// inside each other, so a section's elapsed time is the stage's own.
/// Cost: two clock reads per section, and no allocation unless bound to
/// a sink.
///
/// Thread-confinement: like JoinTelemetry's current span, a Stage is
/// control-thread-confined: the drivers call the stages on their control
/// thread (parallelism lives inside the stages), so the members need no
/// lock. The counters it publishes to are atomic, which is what the
/// heartbeat thread reads.
class Stage {
 public:
  /// `tag` is the stage's one name: its metric, span and EXPLAIN name (a
  /// names::kOp* constant). `seconds` is the JoinStats field its time
  /// feeds, or null for a stage outside the Figure 2 steps.
  Stage(std::string_view tag, std::string detail, double* seconds)
      : tag_(tag), detail_(std::move(detail)), seconds_(seconds) {}
  /// Ends the span of a stage the driver left without closing (an early
  /// return); a closed stage has nothing left to end.
  ~Stage();
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Binds to the run's sinks: registers the four pipeline.<tag>.*
  /// counters in telemetry->metrics() (when set) and opens the stage's
  /// kStable span under the root (when tracing). `lane` is the stage's
  /// trace lane, the order in which the driver bound it. A null
  /// telemetry leaves the stage unbound: it still keeps the ledger.
  void Bind(JoinTelemetry* telemetry, uint32_t lane);

  /// Times one call into the stage: construction reads the clock and
  /// makes the stage's span the current span of the bound telemetry;
  /// destruction restores the outer span and adds the elapsed time, the
  /// batches counted with Produced() and — when publishing — the row
  /// totals so far to the counters, as deltas against the last
  /// published values, so the heartbeat sees live counts mid-join.
  class Timed {
   public:
    explicit Timed(Stage* stage);
    ~Timed();
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

    /// Counts `batches` data batches the call handed down the chain.
    void Produced(uint64_t batches = 1) { batches_ += batches; }

   private:
    Stage* stage_;
    SpanId outer_span_ = kNoSpan;
    uint64_t batches_ = 0;
    int64_t start_ns_ = 0;
  };

  /// Flushes the final row totals, ends the span with its rows_in /
  /// rows_out attributes, adds the stage's time to `*seconds`, and —
  /// with an `explain` report — records the stage's EXPLAIN plan row and
  /// its pipeline.<tag>.rows_out drift actual. Called when the stage
  /// closes, on every exit path the driver closes it on; idempotent.
  void Close(ExplainReport* explain);

  /// True when bound to a MetricsRegistry (the counters are published).
  bool publishing() const { return ns_counter_ != nullptr; }
  /// Time spent in this stage across all its sections.
  uint64_t ns() const { return ns_; }
  /// Data batches the stage produced.
  uint64_t batches() const { return batches_; }

  uint64_t rows_in = 0;
  uint64_t rows_out = 0;

 private:
  void PublishRows();

  std::string_view tag_;  // static-storage names:: constant
  std::string detail_;
  double* seconds_;
  bool closed_ = false;
  uint64_t ns_ = 0;
  uint64_t batches_ = 0;
  JoinTelemetry* telemetry_ = nullptr;
  SpanId span_ = kNoSpan;
  Counter* batches_counter_ = nullptr;
  Counter* rows_in_counter_ = nullptr;
  Counter* rows_out_counter_ = nullptr;
  Counter* ns_counter_ = nullptr;
  uint64_t published_rows_in_ = 0;
  uint64_t published_rows_out_ = 0;
};

/// Runs a stage that is one timed section from start to end — the DBMS
/// plans' steps and the string join's wrapper steps: binds a `tag`
/// ledger to `telemetry` at trace lane `lane`, times `body` in one
/// section, and closes the stage into `*seconds`. `rows_in` is what the
/// stage was handed; `body` returns the rows it produced, or an error
/// Status, which RunStage returns with the stage's span ended.
template <typename Body>
Status RunStage(JoinTelemetry* telemetry, std::string_view tag,
                uint32_t lane, double* seconds, uint64_t rows_in,
                Body body) {
  Stage stage(tag, "", seconds);
  stage.Bind(telemetry, lane);
  stage.rows_in = rows_in;
  {
    Stage::Timed timed(&stage);
    SSJOIN_ASSIGN_OR_RETURN(stage.rows_out, body());
    timed.Produced();
  }
  stage.Close(nullptr);
  return Status::OK();
}

}  // namespace ssjoin::obs
