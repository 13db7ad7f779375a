// Hierarchical tracing spans for join execution.
//
// A Tracer records a tree of spans (join → stage → shard/chunk) with
// wall-clock intervals, attributes, and point events. It is the
// substrate behind the paper's Section 3.2 evaluation methodology made
// first-class: instead of ad-hoc per-phase timers, every driver opens
// spans through obs::JoinTelemetry and the exporters (obs/export.h)
// render the same recording as a deterministic JSONL stream, a Chrome
// trace_event file for about:tracing/Perfetto, or a human report.
//
// Thread-safety: all mutating calls serialize on one mutex. Spans are
// stored in creation order; control-thread (kStable) spans are created
// in a deterministic order by construction, worker-thread (kRuntime)
// spans may interleave arbitrarily — which is exactly why the
// deterministic exporters drop them (see obs/stability.h).
//
// Cost model: a null Tracer* at the instrumentation seams costs one
// branch and zero allocations (the JoinTelemetry wrappers never touch
// the Tracer when it is null); with a Tracer attached, each span costs
// one mutex acquisition plus one vector append.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/stability.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace ssjoin::obs {

/// Index-style span handle. 0 (kNoSpan) means "no span" — the parent of
/// a root span, or the result of instrumentation with no tracer.
using SpanId = uint32_t;
inline constexpr SpanId kNoSpan = 0;

/// A typed attribute value (JSON-representable).
struct AttrValue {
  enum class Kind { kUint, kDouble, kString };
  Kind kind = Kind::kUint;
  uint64_t u = 0;
  double d = 0;
  std::string s;

  static AttrValue Uint(uint64_t v);
  static AttrValue Double(double v);
  static AttrValue String(std::string_view v);
};

/// A point-in-time occurrence inside a span (e.g. a guard trip with its
/// cause). Events on kStable spans must carry deterministic payloads.
struct SpanEvent {
  std::string name;
  std::string detail;
  int64_t at_us = 0;  // relative to the tracer epoch
};

struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string name;
  Stability stability = Stability::kStable;
  /// Rendering lane for concurrent kRuntime spans (shard/chunk index);
  /// becomes the Chrome-trace tid so overlapping shards don't collide.
  uint32_t lane = 0;
  int64_t start_us = 0;
  int64_t end_us = -1;  // -1 while the span is open
  std::vector<std::pair<std::string, AttrValue>> attrs;
  std::vector<SpanEvent> events;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span under `parent` (kNoSpan = a root). Returns its handle.
  SpanId StartSpan(std::string_view name, SpanId parent = kNoSpan,
                   Stability stability = Stability::kStable,
                   uint32_t lane = 0) SSJOIN_EXCLUDES(mutex_);

  /// Closes the span. Open spans are exported with their start only.
  void EndSpan(SpanId id) SSJOIN_EXCLUDES(mutex_);

  /// Appends a point event to the span.
  void AddEvent(SpanId id, std::string_view name,
                std::string_view detail = {}) SSJOIN_EXCLUDES(mutex_);

  /// Sets (or overwrites) one attribute. Attribute order is insertion
  /// order, so control-thread instrumentation stays deterministic.
  void SetAttr(SpanId id, std::string_view key, uint64_t value)
      SSJOIN_EXCLUDES(mutex_);
  void SetAttr(SpanId id, std::string_view key, double value)
      SSJOIN_EXCLUDES(mutex_);
  void SetAttr(SpanId id, std::string_view key, std::string_view value)
      SSJOIN_EXCLUDES(mutex_);

  /// Copy of all spans in creation order (exporter input).
  std::vector<SpanRecord> Snapshot() const SSJOIN_EXCLUDES(mutex_);

  size_t span_count() const SSJOIN_EXCLUDES(mutex_);

  /// Drops every recorded span (the epoch is kept).
  void Reset() SSJOIN_EXCLUDES(mutex_);

 private:
  SpanRecord* Find(SpanId id) SSJOIN_REQUIRES(mutex_);
  void SetAttrValue(SpanId id, std::string_view key, AttrValue value)
      SSJOIN_EXCLUDES(mutex_);

  mutable util::Mutex mutex_;
  // Stopwatch reads are pure clock queries against a start point that is
  // fixed at construction (Restart() is never called on the epoch).
  Stopwatch epoch_;  // ssjoin-lint: allow(guarded-by-required)
  std::vector<SpanRecord> spans_ SSJOIN_GUARDED_BY(mutex_);
};

}  // namespace ssjoin::obs
