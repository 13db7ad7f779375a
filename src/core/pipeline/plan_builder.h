// The plan builder: every execution mode as one operator chain (DESIGN.md
// Section 13). The driver in core/ssjoin.cc builds the chain and calls
// Plan::Run; everything the modes share — guard protocol, telemetry
// discipline, explain plan recording — lives in the operators, once.
//
//   Sorted     SigGen -> CandidateGen [-> BitmapFilter -> Verify]
//              -> DedupEmit
//   Pipelined  PipelinedScan [-> BitmapFilter -> Verify] -> DedupEmit
//   Spilled    SpillPartition [-> BitmapFilter -> Verify] -> DedupEmit
//
// The bracketed tail exists only when options.verify; BitmapFilter only
// when options.bitmap_bits != 0. The sorted and spilled chains emit
// globally sorted candidates, so their DedupEmit appends; the pipelined
// chain emits in discovery order and sorts at end of stream.

#pragma once

#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

/// Appends the chain for `mode` to `plan`: the spilled chain when
/// `spill` (any mode — the self-join modes share one output contract),
/// otherwise the mode's in-memory chain.
void BuildPlan(Plan* plan, ExecContext* ctx, ExecutionMode mode, bool spill);

}  // namespace ssjoin::pipeline
