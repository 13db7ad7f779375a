// DedupEmitOperator: the plan's sink — appends each chunk's verified
// pairs to the JoinResult in stream order (DESIGN.md Section 13).
//
// Both sources generate candidates globally deduplicated and sorted, so
// plain appending already yields the final sorted pair vector. Emission
// is not a Figure 2 step, so the operator's self-time feeds no JoinStats
// seconds field (it stays visible as pipeline.dedup_emit.ns).

#pragma once

#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class DedupEmitOperator : public Operator {
 public:
  explicit DedupEmitOperator(ExecContext* ctx)
      : Operator(ctx, "DedupEmit", "append", obs::names::kOpDedupEmit,
                 /*seconds=*/nullptr) {}

  Status NextBatch(Batch* out) override;
  void Close() override;
};

}  // namespace ssjoin::pipeline
