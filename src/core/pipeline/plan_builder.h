// The plan builder: every execution mode as one operator chain (DESIGN.md
// Section 13). The driver in core/ssjoin.cc builds the chain and calls
// Plan::Run; everything the modes share — guard protocol, telemetry
// discipline, explain plan recording — lives in the operators, once.
//
//   In memory  SigGen -> CandidateGen [-> BitmapFilter] -> Verify
//              -> DedupEmit
//   Spilled    SpillPartition [-> BitmapFilter] -> Verify -> DedupEmit
//
// BitmapFilter is present only when options.bitmap_bits != 0. Both
// sources emit globally sorted candidates, so DedupEmit appends.

#pragma once

#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

/// Appends the join's chain to `plan`: the spilled chain when `spill`,
/// otherwise the in-memory chain. ctx->right selects self or binary.
void BuildPlan(Plan* plan, ExecContext* ctx, bool spill);

}  // namespace ssjoin::pipeline
