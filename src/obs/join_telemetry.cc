#include "obs/join_telemetry.h"

#include <algorithm>
#include <chrono>
#include <string>

namespace ssjoin::obs {
namespace {

// Monotonic nanoseconds; only meaningful for differences.
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

JoinTelemetry::JoinTelemetry(Tracer* tracer, MetricsRegistry* metrics,
                             std::string_view root_name)
    : tracer_(tracer), metrics_(metrics) {
  if (tracer_ != nullptr) {
    root_ = tracer_->StartSpan(root_name, kNoSpan, Stability::kStable);
  }
}

JoinTelemetry::~JoinTelemetry() {
  if (tracer_ != nullptr && root_ != kNoSpan) tracer_->EndSpan(root_);
}

JoinTelemetry::PhaseScope::~PhaseScope() {
  *seconds_ += watch_.ElapsedSeconds();
  if (span_ != kNoSpan) telemetry_->tracer_->EndSpan(span_);
}

JoinTelemetry::PhaseScope JoinTelemetry::Phase(std::string_view name,
                                               double* seconds) {
  SpanId span = kNoSpan;
  if (tracer_ != nullptr) {
    span = tracer_->StartSpan(name, root_, Stability::kStable);
    current_span_ = span;
  }
  return PhaseScope(this, seconds, span);
}

void JoinTelemetry::PhaseAttr(std::string_view key, uint64_t value) {
  if (tracer_ != nullptr && current_span_ != kNoSpan) {
    tracer_->SetAttr(current_span_, key, value);
  }
}

JoinTelemetry::SampleScope::~SampleScope() {
  if (latency_ != nullptr) {
    latency_->Record(static_cast<uint64_t>(watch_.ElapsedMicros()));
  }
  if (span_ != kNoSpan) telemetry_->tracer_->EndSpan(span_);
}

JoinTelemetry::SampleScope JoinTelemetry::Sample(std::string_view name,
                                                 Histogram* latency,
                                                 uint32_t lane) {
  SpanId span = kNoSpan;
  if (tracer_ != nullptr) {
    SpanId parent = current_span_ != kNoSpan ? current_span_ : root_;
    span = tracer_->StartSpan(name, parent, Stability::kRuntime, lane);
  }
  return SampleScope(this, latency, span);
}

void JoinTelemetry::Event(std::string_view name, std::string_view detail) {
  if (tracer_ != nullptr && root_ != kNoSpan) {
    tracer_->AddEvent(root_, name, detail);
  }
}

void JoinTelemetry::Attr(std::string_view key, uint64_t value) {
  if (tracer_ != nullptr && root_ != kNoSpan) {
    tracer_->SetAttr(root_, key, value);
  }
}

void JoinTelemetry::Attr(std::string_view key, double value) {
  if (tracer_ != nullptr && root_ != kNoSpan) {
    tracer_->SetAttr(root_, key, value);
  }
}

void JoinTelemetry::Attr(std::string_view key, std::string_view value) {
  if (tracer_ != nullptr && root_ != kNoSpan) {
    tracer_->SetAttr(root_, key, value);
  }
}

void JoinTelemetry::AddCount(std::string_view name, uint64_t delta,
                             Stability stability) {
  if (metrics_ != nullptr) metrics_->counter(name, stability).Add(delta);
}

void JoinTelemetry::SetGauge(std::string_view name, double value,
                             Stability stability) {
  if (metrics_ != nullptr) metrics_->gauge(name, stability).Set(value);
}

void OpInstrument::Bind(JoinTelemetry* telemetry, std::string_view tag,
                        uint32_t lane) {
  telemetry_ = telemetry;
  if (telemetry == nullptr) return;
  if (MetricsRegistry* metrics = telemetry->metrics(); metrics != nullptr) {
    std::string base(names::kPipelinePrefix);
    base += tag;
    // Row totals are functions of the input and stages — stable. Batch
    // granularity and self-time vary with thread count and the wall
    // clock — runtime (see obs/stability.h).
    batches_counter_ =
        &metrics->counter(base + std::string(names::kPipelineSuffixBatches),
                          Stability::kRuntime);
    rows_in_counter_ =
        &metrics->counter(base + std::string(names::kPipelineSuffixRowsIn),
                          Stability::kStable);
    rows_out_counter_ =
        &metrics->counter(base + std::string(names::kPipelineSuffixRowsOut),
                          Stability::kStable);
    self_ns_counter_ =
        &metrics->counter(base + std::string(names::kPipelineSuffixNs),
                          Stability::kRuntime);
  }
  if (Tracer* tracer = telemetry->tracer(); tracer != nullptr) {
    span_ = tracer->StartSpan(tag, telemetry->root(), Stability::kStable,
                              lane);
  }
}

OpInstrument::Start OpInstrument::Begin() {
  Start start;
  if (span_ != kNoSpan) {
    start.outer_span = telemetry_->current_span_;
    telemetry_->current_span_ = span_;
  }
  start.ns = NowNs();
  return start;
}

void OpInstrument::End(const Start& start, uint64_t batches,
                       uint64_t rows_in, uint64_t rows_out) {
  const uint64_t elapsed =
      static_cast<uint64_t>(std::max<int64_t>(0, NowNs() - start.ns));
  self_ns_ += elapsed;
  batches_ += batches;
  if (span_ != kNoSpan) telemetry_->current_span_ = start.outer_span;
  if (publishing()) {
    self_ns_counter_->Add(elapsed);
    if (batches > 0) batches_counter_->Add(batches);
    PublishRows(rows_in, rows_out);
  }
}

void OpInstrument::PublishRows(uint64_t rows_in, uint64_t rows_out) {
  if (rows_in > published_rows_in_) {
    rows_in_counter_->Add(rows_in - published_rows_in_);
    published_rows_in_ = rows_in;
  }
  if (rows_out > published_rows_out_) {
    rows_out_counter_->Add(rows_out - published_rows_out_);
    published_rows_out_ = rows_out;
  }
}

void OpInstrument::Close(uint64_t rows_in, uint64_t rows_out) {
  if (publishing()) PublishRows(rows_in, rows_out);
  if (span_ != kNoSpan) {
    Tracer* tracer = telemetry_->tracer();
    tracer->SetAttr(span_, names::kAttrRowsIn, rows_in);
    tracer->SetAttr(span_, names::kAttrRowsOut, rows_out);
    tracer->EndSpan(span_);
    span_ = kNoSpan;
  }
}

}  // namespace ssjoin::obs
