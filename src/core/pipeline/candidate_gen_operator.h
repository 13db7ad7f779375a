// CandidateGenOperator: the sorted drivers' candidate-generation phase
// (DESIGN.md Section 13). Pulls the one kSignatures batch from
// SigGenOperator, groups its postings (kernels/posting_groups.h), pairs
// them up shard by shard and unions the shards, then streams the sorted
// packed-candidate vector as 16384-candidate CandidateChunks (the
// guarded verify super-chunks).
//
// Phase contract, identical to the legacy drivers, in order: the
// auto-spill budget check against the CSR table footprint (degrade →
// free the tables, set ctx->degrade, end the stream cleanly — the guard
// must not latch); ChargeMemory(table bytes) + the kCandGen checkpoint;
// the CandPair phase span around group/pair/union; tripped → zero the
// partial collision/candidate counters and surface the trip; the
// "candidates" phase attribute and the candidate-vector memory charge.
// With verify off the stream ends after the phase — stats are complete
// and no chunks flow (the legacy !verify early-return).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class CandidateGenOperator : public Operator {
 public:
  explicit CandidateGenOperator(ExecContext* ctx)
      : Operator(ctx, "CandidateGen", "sorted shards",
                 obs::names::kOpCandGen) {}

  Status NextBatch(Batch* out) override;
  void Close() override;

 private:
  Status Produce(Batch* sigs);

  bool produced_ = false;
  std::vector<uint64_t> candidates_;
  size_t pos_ = 0;
};

}  // namespace ssjoin::pipeline
