#include "obs/join_telemetry.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/explain.h"

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

Stage::~Stage() {
  if (span_ != kNoSpan) telemetry_->tracer()->EndSpan(span_);
}

void Stage::Bind(JoinTelemetry* telemetry, uint32_t lane) {
  telemetry_ = telemetry;
  if (telemetry == nullptr) return;
  if (MetricsRegistry* metrics = telemetry->metrics(); metrics != nullptr) {
    std::string base(names::kPipelinePrefix);
    base += tag_;
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
    ns_counter_ =
        &metrics->counter(base + std::string(names::kPipelineSuffixNs),
                          Stability::kRuntime);
  }
  if (Tracer* tracer = telemetry->tracer(); tracer != nullptr) {
    span_ = tracer->StartSpan(tag_, telemetry->root(), Stability::kStable,
                              lane);
  }
}

Stage::Timed::Timed(Stage* stage) : stage_(stage) {
  if (stage->span_ != kNoSpan) {
    outer_span_ = stage->telemetry_->current_span_;
    stage->telemetry_->current_span_ = stage->span_;
  }
  start_ns_ = NowNs();
}

Stage::Timed::~Timed() {
  const uint64_t elapsed =
      static_cast<uint64_t>(std::max<int64_t>(0, NowNs() - start_ns_));
  Stage& stage = *stage_;
  stage.ns_ += elapsed;
  stage.batches_ += batches_;
  if (stage.span_ != kNoSpan) stage.telemetry_->current_span_ = outer_span_;
  if (stage.publishing()) {
    stage.ns_counter_->Add(elapsed);
    if (batches_ > 0) stage.batches_counter_->Add(batches_);
    stage.PublishRows();
  }
}

void Stage::PublishRows() {
  if (rows_in > published_rows_in_) {
    rows_in_counter_->Add(rows_in - published_rows_in_);
    published_rows_in_ = rows_in;
  }
  if (rows_out > published_rows_out_) {
    rows_out_counter_->Add(rows_out - published_rows_out_);
    published_rows_out_ = rows_out;
  }
}

void Stage::Close(ExplainReport* explain) {
  if (closed_) return;
  closed_ = true;
  if (publishing()) PublishRows();
  if (span_ != kNoSpan) {
    Tracer* tracer = telemetry_->tracer();
    tracer->SetAttr(span_, names::kAttrRowsIn, rows_in);
    tracer->SetAttr(span_, names::kAttrRowsOut, rows_out);
    tracer->EndSpan(span_);
    span_ = kNoSpan;
  }
  const double seconds = static_cast<double>(ns_) / 1e9;
  if (seconds_ != nullptr) *seconds_ += seconds;
  if (explain == nullptr) return;
  explain->plan.push_back(
      {std::string(tag_), detail_, rows_in, rows_out, seconds});
  // The stage's drift actual: what actually flowed out of it
  // (deterministic: the same rows at any thread count).
  std::string drift_name(names::kPipelinePrefix);
  drift_name += tag_;
  drift_name += names::kPipelineSuffixRowsOut;
  explain->Actual(drift_name, static_cast<double>(rows_out));
}

}  // namespace ssjoin::obs
