// DedupEmitOperator: the plan's sink — appends each chunk's verified
// pairs to the JoinResult in stream order (DESIGN.md Section 13).
//
// The sorted and spilled modes generate candidates globally
// deduplicated and sorted, so plain appending already yields the final
// sorted pair vector. The pipelined mode deduplicates per probe set but
// emits in discovery order, so `sort_on_end` replays the legacy drivers'
// final std::sort when the end batch arrives (skipped on an auto-spill
// degrade: the spilled rerun's own plan emits the pairs). Emission is
// not a Figure 2 step, so the operator's self-time feeds no JoinStats
// seconds field (it stays visible as pipeline.dedup_emit.ns).

#pragma once

#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class DedupEmitOperator : public Operator {
 public:
  DedupEmitOperator(ExecContext* ctx, bool sort_on_end)
      : Operator(ctx, "DedupEmit", sort_on_end ? "sort" : "append",
                 obs::names::kOpDedupEmit, /*seconds=*/nullptr),
        sort_on_end_(sort_on_end) {}

  Status NextBatch(Batch* out) override;
  void Close() override;

 private:
  bool sort_on_end_;
};

}  // namespace ssjoin::pipeline
