#include "core/pipeline/dedup_emit_operator.h"

namespace ssjoin::pipeline {

Status DedupEmitOperator::NextBatch(Batch* out) {
  SSJOIN_RETURN_NOT_OK(input_->Pull(out));
  if (out->kind != Batch::Kind::kCandidates) return Status::OK();
  const CandidateChunk& chunk = out->candidates;
  rows_in_ += chunk.verified.size();
  ctx_->result->pairs.insert(ctx_->result->pairs.end(),
                             chunk.verified.begin(), chunk.verified.end());
  rows_out_ += chunk.verified.size();
  return Status::OK();
}

}  // namespace ssjoin::pipeline
