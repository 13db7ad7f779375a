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
// group/pair/union; tripped → zero the partial collision/candidate
// counters and surface the trip; the candidate-vector memory charge.
// Its self-time feeds JoinStats::candpair_seconds.
//
// GenerateCandidates is the pair-up-and-union step itself, shared with
// the spill layer's per-partition loop (core/spill/spill_join.cc).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/kernels/posting_groups.h"
#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

/// Candidate generation over grouped postings: pairs up every pool shard
/// (self-join over `shards_l` when `shards_r` is null, otherwise the
/// binary merge of the two sides), then unions the sorted shard outputs
/// in log2(shards) pairwise set_union rounds, each round's merges
/// running in parallel. Adds into stats->signature_collisions, sets
/// stats->candidates, and returns the global sorted duplicate-free
/// candidate vector.
std::vector<uint64_t> GenerateCandidates(
    const std::vector<kernels::PostingShard>& shards_l,
    const std::vector<kernels::PostingShard>* shards_r, ThreadPool& pool,
    const std::function<bool()>& stop, JoinStats* stats,
    obs::JoinTelemetry* telem);

class CandidateGenOperator : public Operator {
 public:
  explicit CandidateGenOperator(ExecContext* ctx)
      : Operator(ctx, "CandidateGen", "sorted shards",
                 obs::names::kOpCandGen, &JoinStats::candpair_seconds) {}

  Status NextBatch(Batch* out) override;
  void Close() override;

 private:
  Status Produce(Batch* sigs);

  bool produced_ = false;
  std::vector<uint64_t> candidates_;
  size_t pos_ = 0;
};

}  // namespace ssjoin::pipeline
