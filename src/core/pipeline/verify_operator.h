// VerifyOperator: predicate verification over candidate chunks
// (DESIGN.md Section 13). Every chunk boundary is the legacy verify
// super-chunk barrier. Per chunk, with a guard: Checkpoint(kVerify),
// CheckBreaker(chunk start, results so far), THEN commit the chunk's
// bitmap tallies (a trip at the barrier must leave stats exactly as the
// legacy loop did), then the parallel evaluate inside a "verify_chunk"
// runtime sample, then ChargeMemory for the appended pairs. The end
// batch runs the final breaker over the complete pre-filter totals
// (with a leading checkpoint when the stream was empty — the legacy
// pre-loop checkpoint).
//
// Its self-time feeds JoinStats::postfilter_seconds.
//
// Pairs are evaluated and appended in candidate order, so the chunk's
// verified vector — and therefore the final pair vector — is
// byte-identical at any thread count.

#pragma once

#include <cstddef>
#include <cstdint>

#include "core/pipeline/operator.h"

namespace ssjoin::obs {
class Histogram;
}  // namespace ssjoin::obs

namespace ssjoin::pipeline {

class VerifyOperator : public Operator {
 public:
  explicit VerifyOperator(ExecContext* ctx)
      : Operator(ctx, "Verify", "chunked", obs::names::kOpVerify,
                 &JoinStats::postfilter_seconds) {}

  Status NextBatch(Batch* out) override;
  void Close() override;

 private:
  Status VerifyChunk(CandidateChunk* chunk);
  void EvaluateChunk(CandidateChunk* chunk);

  bool any_chunk_ = false;
  size_t total_pre_filter_ = 0;
  bool histogram_ready_ = false;
  obs::Histogram* chunk_micros_ = nullptr;
};

}  // namespace ssjoin::pipeline
