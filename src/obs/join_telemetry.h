// Per-join instrumentation handle: the one seam through which the join
// drivers time phases, open spans, and publish metrics.
//
// JoinTelemetry wraps an optional Tracer and an optional MetricsRegistry
// (either or both may be null — the null-sink default). Its contract:
//
//   * Null sinks cost nothing: every call is a branch on a null pointer;
//     no allocation, no locking, no clock reads beyond the phase timing
//     the drivers always did (JoinStats seconds). The zero-allocation
//     property is enforced by tests/obs.
//   * Phase timing feeds JoinStats directly: Phase()/Time() scopes
//     accumulate elapsed seconds into a caller-owned double, replacing
//     the raw PhaseTimer plumbing that used to live in src/core (the
//     `no-raw-timing` lint rule keeps it out).
//   * Stable vs runtime recording: Phase() opens kStable spans (the
//     deterministic join → phase skeleton); Sample() opens kRuntime
//     spans for shard/chunk/block detail and feeds latency histograms.
//
// Construction opens the root span; destruction closes it.
//
// Thread-safety (DESIGN.md Section 10): JoinTelemetry itself holds no
// lock because it owns no shared mutable state — root_ is written once
// in the constructor, and phase_span_ is *control-thread-confined*:
// only Phase(), called from the driver's control thread between
// parallel regions, writes it. Worker threads may use Sample(),
// Event(), Attr(), AddCount() and SetGauge() freely: those delegate to
// the Tracer and MetricsRegistry sinks, whose capabilities (their
// internal util::Mutex, see obs/trace.h and obs/metrics.h) serialize
// the actual mutation. There is deliberately no annotation that could
// express "confined to the control thread"; the parallel drivers
// enforce it structurally by never passing the JoinTelemetry handle
// into ParallelFor bodies — only raw Tracer*/Histogram* handles.

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

  /// RAII timing scope: on destruction adds the elapsed seconds to
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
  /// `*seconds`. Must be called from the control thread; the most recent
  /// phase span is the parent for Sample() scopes and PhaseAttr().
  PhaseScope Phase(std::string_view name, double* seconds);

  /// Timer-only variant for interleaved execution (the pipelined
  /// drivers' per-item scopes, far too fine-grained for spans).
  PhaseScope Time(double* seconds);

  /// The most recent Phase() span (kNoSpan before the first).
  SpanId phase_span() const { return phase_span_; }

  /// Manual counterpart to Phase() for phases that cannot live inside
  /// one lexical scope (an operator whose phase spans several
  /// NextBatch() pulls). PhaseBegin opens the kStable span and starts
  /// the clock; PhaseEnd closes the span and adds the elapsed seconds
  /// to the double captured at PhaseBegin. At most one manual phase may
  /// be open per JoinTelemetry; PhaseEnd with none open is a no-op, and
  /// both calls are control-thread-only like Phase(). Pass an empty
  /// name for the timer-only variant (mirrors Time(): no span even when
  /// tracing).
  void PhaseBegin(std::string_view name, double* seconds);
  void PhaseEnd();

  /// True between PhaseBegin() and the matching PhaseEnd().
  bool manual_phase_open() const { return manual_seconds_ != nullptr; }

  /// Sets an attribute on the most recent phase span (no-op untraced).
  void PhaseAttr(std::string_view key, uint64_t value);

  /// RAII sampling scope for runtime detail: opens a kRuntime span (when
  /// tracing) under the current phase span — or the root if no phase is
  /// open — and, when `latency` is non-null, records the elapsed
  /// microseconds into it on destruction. Safe to use from worker
  /// threads (lane disambiguates concurrent scopes).
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
  Tracer* tracer_;
  MetricsRegistry* metrics_;
  SpanId root_ = kNoSpan;
  SpanId phase_span_ = kNoSpan;
  SpanId manual_span_ = kNoSpan;
  double* manual_seconds_ = nullptr;
  Stopwatch manual_watch_;
};

/// Per-operator pipeline instrumentation (DESIGN.md Section 14). One
/// OpInstrument lives in each pipeline Operator; Plan::Run binds it when
/// the run has a MetricsRegistry. Bound, it owns four counters named
/// "pipeline.<tag>." + {batches, rows_in, rows_out, ns} — row totals are
/// kStable (functions of input and plan, exactly equal at any thread
/// count / spill mode), batch counts and self-time are kRuntime (batch
/// granularity is thread-count-dependent, ns is wall clock) — plus one
/// kRuntime span per operator when tracing. Unbound it is the null sink:
/// enabled() is one branch, and Operator::Pull falls straight through to
/// NextBatch with no clock read and no allocation.
///
/// The clock reads live here, in the obs layer, so src/core stays clean
/// under the `no-raw-timing` lint: core calls the opaque NowNs()/
/// RecordPull() seams. Self-time attribution: Pull passes the elapsed
/// time of the nested input Pull (via inclusive_ns()) and RecordPull
/// charges only the difference, so operator times sum to the chain's
/// wall time instead of multiply counting.
///
/// Thread-confinement: like JoinTelemetry's phase state, an OpInstrument
/// is control-thread-confined — the Volcano pull loop is single-threaded
/// (parallelism lives inside operators), so the members need no lock.
/// The counters it publishes to are atomic, which is what the heartbeat
/// thread reads.
class OpInstrument {
 public:
  OpInstrument() = default;
  OpInstrument(const OpInstrument&) = delete;
  OpInstrument& operator=(const OpInstrument&) = delete;

  /// Binds to the run's sinks: registers the four pipeline.<tag>.*
  /// counters in telemetry->metrics() (no-op when null) and opens the
  /// operator's kRuntime span under the root when tracing. `lane` is
  /// the operator's position in the chain (distinct trace lanes).
  void Bind(JoinTelemetry* telemetry, std::string_view tag, uint32_t lane);

  bool enabled() const { return batches_ != nullptr; }

  /// Monotonic nanoseconds; only meaningful for differences. Callers
  /// must guard with enabled() — the null sink never reads a clock.
  int64_t NowNs() const;

  /// Accounts one Pull: `start_ns` from NowNs() before NextBatch,
  /// `nested_ns` the inclusive time the input operator consumed inside
  /// this pull, `produced` whether a data batch came out. Publishes the
  /// row totals as deltas against the last published values, so the
  /// heartbeat sees live counts mid-join.
  void RecordPull(int64_t start_ns, uint64_t nested_ns, bool produced,
                  uint64_t rows_in, uint64_t rows_out);

  /// Total time spent inside this operator's Pull calls (including its
  /// inputs) — the parent's nested_ns.
  uint64_t inclusive_ns() const { return inclusive_ns_; }

  /// Flushes the final row totals and closes the operator span. Called
  /// from Operator::Close on every exit path; idempotent.
  void FinishCounts(uint64_t rows_in, uint64_t rows_out);

 private:
  Counter* batches_ = nullptr;
  Counter* rows_in_ = nullptr;
  Counter* rows_out_ = nullptr;
  Counter* self_ns_ = nullptr;
  Tracer* tracer_ = nullptr;
  SpanId span_ = kNoSpan;
  uint64_t inclusive_ns_ = 0;
  uint64_t published_rows_in_ = 0;
  uint64_t published_rows_out_ = 0;
};

}  // namespace ssjoin::obs
