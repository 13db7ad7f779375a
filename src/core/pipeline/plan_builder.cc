#include "core/pipeline/plan_builder.h"

#include <memory>

#include "core/pipeline/bitmap_filter_operator.h"
#include "core/pipeline/candidate_gen_operator.h"
#include "core/pipeline/dedup_emit_operator.h"
#include "core/pipeline/pipelined_scan_operator.h"
#include "core/pipeline/siggen_operator.h"
#include "core/pipeline/spill_partition_operator.h"
#include "core/pipeline/verify_operator.h"

namespace ssjoin::pipeline {

void BuildPlan(Plan* plan, ExecContext* ctx, ExecutionMode mode, bool spill) {
  // The pipelined chain streams candidates per probe unit in discovery
  // order: its bitmap table is built eagerly, its verify runs inline per
  // unit, and DedupEmit sorts at end of stream. The other chains emit
  // globally sorted candidates in guarded super-chunks.
  const bool pipelined = !spill && mode == ExecutionMode::kPipelinedSelfJoin;
  if (spill) {
    plan->Add(std::make_unique<SpillPartitionOperator>(ctx));
  } else if (pipelined) {
    plan->Add(std::make_unique<PipelinedScanOperator>(ctx));
  } else {
    plan->Add(std::make_unique<SigGenOperator>(ctx));
    plan->Add(std::make_unique<CandidateGenOperator>(ctx));
  }
  const JoinOptions& options = *ctx->options;
  if (options.verify) {
    if (options.bitmap_bits != 0) {
      plan->Add(std::make_unique<BitmapFilterOperator>(ctx,
                                                       /*eager=*/pipelined));
    }
    plan->Add(std::make_unique<VerifyOperator>(ctx, /*chunked=*/!pipelined));
  }
  plan->Add(std::make_unique<DedupEmitOperator>(ctx,
                                                /*sort_on_end=*/pipelined));
}

}  // namespace ssjoin::pipeline
