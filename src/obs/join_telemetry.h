// Per-join instrumentation handle: the one seam through which the join
// drivers open spans and publish metrics.
//
// JoinTelemetry wraps an optional Tracer and an optional MetricsRegistry
// (either or both may be null — the null-sink default). Its contract:
//
//   * Null sinks cost nothing: every call is a branch on a null pointer;
//     no allocation, no locking. The zero-allocation property is
//     enforced by tests/obs.
//   * One clock per operator chain: a Join() plan is timed only at
//     Operator::Pull, by the OpInstrument below; JoinStats seconds, the
//     operator spans and pipeline.<op>.ns are all derived from that one
//     ledger. Phase() scopes time what is not an operator chain
//     straight into JoinStats: the DBMS driver's three steps, and the
//     string join's two wrapper steps (q-gram extraction with scheme
//     construction, and the edit-distance check) around its Join().
//   * Stable vs runtime recording: operator spans and Phase() spans are
//     kStable (the deterministic join skeleton); Sample() opens kRuntime
//     spans for shard/chunk detail and feeds latency histograms.
//
// Construction opens the root span; destruction closes it.
//
// Thread-safety (DESIGN.md Section 10): JoinTelemetry itself holds no
// lock because it owns no shared mutable state — root_ is written once
// in the constructor, and current_span_ is *control-thread-confined*:
// only Phase() and the operator pull loop, both on the driver's control
// thread between parallel regions, write it. Worker threads may use
// Sample(), Event(), Attr(), AddCount() and SetGauge() freely: those
// delegate to the Tracer and MetricsRegistry sinks, whose capabilities
// (their internal util::Mutex, see obs/trace.h and obs/metrics.h)
// serialize the actual mutation. There is deliberately no annotation
// that could express "confined to the control thread"; the parallel
// drivers enforce it structurally by never passing the JoinTelemetry
// handle into ParallelFor bodies — only raw Tracer*/Histogram* handles.

#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"
#include "obs/stability.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace ssjoin::obs {

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

  /// RAII phase scope: on destruction adds the elapsed seconds to
  /// `*seconds` and closes the span (if one was opened).
  class PhaseScope {
   public:
    PhaseScope(JoinTelemetry* telemetry, double* seconds, SpanId span)
        : telemetry_(telemetry), seconds_(seconds), span_(span) {}
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;
    ~PhaseScope();

   private:
    JoinTelemetry* telemetry_;
    double* seconds_;
    SpanId span_;
    Stopwatch watch_;
  };

  /// Opens a kStable phase span under the root and times it into
  /// `*seconds`. For work outside an operator chain (the DBMS driver,
  /// the string join's wrapper steps); a Join() plan is timed by its
  /// OpInstruments instead. Must be called from the control thread; the phase span
  /// becomes the parent for Sample() scopes and PhaseAttr().
  PhaseScope Phase(std::string_view name, double* seconds);

  /// Sets an attribute on the most recent Phase() span (no-op untraced).
  void PhaseAttr(std::string_view key, uint64_t value);

  /// RAII sampling scope for runtime detail: opens a kRuntime span (when
  /// tracing) under the current span — the span of the operator inside
  /// Pull, or the most recent Phase() span, or else the root — and, when
  /// `latency` is non-null, records the elapsed microseconds into it on
  /// destruction. Safe to use from worker threads (lane disambiguates
  /// concurrent scopes).
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
  friend class OpInstrument;  // swaps current_span_ around each pull

  Tracer* tracer_;
  MetricsRegistry* metrics_;
  SpanId root_ = kNoSpan;
  // Parent of Sample() spans and target of PhaseAttr(); control-thread
  // confined (see the file comment).
  SpanId current_span_ = kNoSpan;
};

/// Per-operator pipeline instrumentation (DESIGN.md Section 14): the one
/// ledger a Join() plan keeps. One OpInstrument lives in each pipeline
/// Operator and Operator::Pull wraps every NextBatch in BeginPull /
/// EndPull, so each operator's self-time, inclusive time and batch count
/// are accounted whatever sinks are attached. Everything else derives
/// from it at Close: the JoinStats seconds field the operator feeds,
/// EXPLAIN's per-operator self time, and — when bound — the published
/// counters and the operator span.
///
/// Bind() attaches the run's sinks. With a MetricsRegistry it publishes
/// four counters named "pipeline.<tag>." + {batches, rows_in, rows_out,
/// ns}: row totals are kStable (functions of input and plan, exactly
/// equal at any thread count / spill mode), batch counts and self-time
/// kRuntime (batch granularity is thread-count-dependent, ns is wall
/// clock). With a Tracer it opens one kStable span named by the tag
/// under the join root, in chain order; while the operator is inside
/// Pull that span is the parent of runtime Sample() spans, and Close()
/// closes it with the stable rows_in/rows_out attributes.
///
/// The clock reads live here, in the obs layer, so src/core stays clean
/// under the `no-raw-timing` lint. Self-time attribution: Pull passes
/// the inclusive time of the nested input Pull (via inclusive_ns()) and
/// EndPull charges only the difference, so operator times sum to the
/// chain's wall time instead of multiply counting. Cost: two clock reads
/// per pull, and no allocation unless bound to a sink.
///
/// Thread-confinement: like JoinTelemetry's current span, an OpInstrument
/// is control-thread-confined — the Volcano pull loop is single-threaded
/// (parallelism lives inside operators), so the members need no lock.
/// The counters it publishes to are atomic, which is what the heartbeat
/// thread reads.
class OpInstrument {
 public:
  /// What BeginPull hands to the matching EndPull.
  struct PullStart {
    int64_t ns = 0;
    SpanId outer_span = kNoSpan;
  };

  OpInstrument() = default;
  OpInstrument(const OpInstrument&) = delete;
  OpInstrument& operator=(const OpInstrument&) = delete;

  /// Binds to the run's sinks: registers the four pipeline.<tag>.*
  /// counters in telemetry->metrics() (when set) and opens the
  /// operator's kStable span under the root (when tracing). `lane` is
  /// the operator's position in the chain (its trace lane). A null
  /// telemetry leaves the instrument unbound: it still keeps the ledger.
  void Bind(JoinTelemetry* telemetry, std::string_view tag, uint32_t lane);

  /// True when bound to a MetricsRegistry (the counters are published).
  bool publishing() const { return self_ns_counter_ != nullptr; }

  /// Starts one pull: reads the clock and makes this operator's span the
  /// current span of the bound telemetry.
  PullStart BeginPull();

  /// Ends the pull BeginPull started: `nested_ns` is the inclusive time
  /// the input operator consumed inside this pull, `produced` whether a
  /// data batch came out. Restores the outer current span and, when
  /// publishing, adds the pull to the counters — row totals as deltas
  /// against the last published values, so the heartbeat sees live
  /// counts mid-join.
  void EndPull(const PullStart& start, uint64_t nested_ns, bool produced,
               uint64_t rows_in, uint64_t rows_out);

  /// Total time spent inside this operator's Pull calls (including its
  /// inputs) — the parent's nested_ns.
  uint64_t inclusive_ns() const { return inclusive_ns_; }
  /// Time spent in this operator's own code across all its pulls.
  uint64_t self_ns() const { return self_ns_; }
  /// Pulls that produced a data batch.
  uint64_t batches() const { return batches_; }

  /// Flushes the final row totals and closes the operator span with its
  /// rows_in/rows_out attributes. Called from Operator::Close on every
  /// exit path; idempotent.
  void Close(uint64_t rows_in, uint64_t rows_out);

 private:
  void PublishRows(uint64_t rows_in, uint64_t rows_out);

  uint64_t inclusive_ns_ = 0;
  uint64_t self_ns_ = 0;
  uint64_t batches_ = 0;
  JoinTelemetry* telemetry_ = nullptr;
  SpanId span_ = kNoSpan;
  Counter* batches_counter_ = nullptr;
  Counter* rows_in_counter_ = nullptr;
  Counter* rows_out_counter_ = nullptr;
  Counter* self_ns_counter_ = nullptr;
  uint64_t published_rows_in_ = 0;
  uint64_t published_rows_out_ = 0;
};

}  // namespace ssjoin::obs
