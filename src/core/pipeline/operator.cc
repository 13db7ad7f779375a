#include "core/pipeline/operator.h"

#include <string>
#include <utility>

#include "obs/explain.h"

namespace ssjoin::pipeline {

void Operator::Close() {
  inst_.Close(rows_in_, rows_out_);
  const double self_seconds = static_cast<double>(inst_.self_ns()) / 1e9;
  if (seconds_ != nullptr) ctx_->result->stats.*seconds_ += self_seconds;
  obs::ExplainReport* explain = ctx_->options->explain;
  if (explain == nullptr) return;
  explain->plan.push_back(
      {name_, detail_, rows_in_, rows_out_, self_seconds});
  // Per-operator actual for the drift table: what actually flowed out
  // of this operator (deterministic — same rows at any thread count).
  std::string drift_name(obs::names::kPipelinePrefix);
  drift_name += tag_;
  drift_name += obs::names::kPipelineSuffixRowsOut;
  explain->Actual(drift_name, static_cast<double>(rows_out_));
}

Status Operator::Pull(Batch* out) {
  const uint64_t nested_before =
      input_ != nullptr ? input_->inst_.inclusive_ns() : 0;
  const obs::OpInstrument::PullStart start = inst_.BeginPull();
  Status status = NextBatch(out);
  const uint64_t nested =
      (input_ != nullptr ? input_->inst_.inclusive_ns() : 0) - nested_before;
  inst_.EndPull(start, nested, status.ok() && out->kind != Batch::Kind::kEnd,
                rows_in_, rows_out_);
  return status;
}

Operator* Plan::Add(std::unique_ptr<Operator> op) {
  if (!ops_.empty()) op->set_input(ops_.back().get());
  ops_.push_back(std::move(op));
  return ops_.back().get();
}

Status Plan::Run() {
  if (ops_.empty()) return Status::OK();
  // The executed plan replaces any previous join's tree (accumulated
  // explain reports show the last plan; see obs/explain.h).
  if (ctx_->options->explain != nullptr) ctx_->options->explain->plan.clear();
  for (size_t i = 0; i < ops_.size(); ++i) {
    ops_[i]->BindInstrument(ctx_->telem, static_cast<uint32_t>(i));
  }
  Status status;
  Operator* sink = ops_.back().get();
  Batch batch;
  while (true) {
    batch.Reset();
    status = sink->Pull(&batch);
    if (!status.ok() || batch.kind == Batch::Kind::kEnd) break;
  }
  for (std::unique_ptr<Operator>& op : ops_) op->Close();
  return status;
}

}  // namespace ssjoin::pipeline
