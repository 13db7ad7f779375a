// PipelinedScanOperator: source for ExecutionMode::kPipelinedSelfJoin
// (DESIGN.md Section 13). One operator fuses SigGen and CandPair the way
// the pipelined drivers did — an inverted index over already-processed
// sets, probed per set so candidates stream out without a global
// signature table — and emits one CandidateChunk per deterministic unit:
//
//   * Serial (pool of one): the unit is 1024 probe sets, the serial
//     driver's barrier granularity. Candidates pack per set in sorted
//     partner order.
//   * Block-parallel: the unit is a block of 256 * threads sets. Each
//     block generates signatures in parallel, probes the (read-only
//     during the block) index plus a sorted block-local posting list for
//     intra-block partners with smaller id, packs the survivors, and
//     only then appends the block to the index — so every probe sees
//     exactly the sets with smaller id, and the candidate multiset
//     matches the serial unit set for set.
//
// The guard barrier precedes every unit (and runs once more at end of
// input): charge the index growth, arm auto-spill degradation, then the
// three phase checkpoints and — only when verifying — the breaker over
// committed candidates vs results. Downstream operators commit a unit's
// verify stats before the next pull, so a barrier always observes
// whole-unit totals, exactly as the legacy loop did. On degradation the
// operator charges nothing further, adds the index footprint to
// ctx->degrade_release_bytes, and ends the stream; the driver reruns
// out of core.
//
// SigGen and CandPair interleave per set here, so the operator's whole
// self-time feeds JoinStats::candpair_seconds and siggen_seconds stays
// 0. Its span is as stable as every other operator's (the chain does
// not depend on the thread count); the block variant adds per-block
// kRuntime samples under it.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/kernels/posting_groups.h"
#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class PipelinedScanOperator : public Operator {
 public:
  explicit PipelinedScanOperator(ExecContext* ctx)
      : Operator(ctx, "PipelinedScan", "inverted index",
                 obs::names::kOpPipelinedScan, &JoinStats::candpair_seconds) {}

  Status Open() override;
  Status NextBatch(Batch* out) override;
  void Close() override;

 private:
  Status Barrier();
  void SerialGroup(Batch* out);
  void ParallelBlock(Batch* out);

  bool serial_ = true;
  bool auto_spill_ = false;
  bool done_ = false;
  SetId next_ = 0;
  uint64_t charged_sigs_ = 0;
  std::unordered_map<Signature, std::vector<SetId>> index_;
  obs::Histogram* block_micros_ = nullptr;
  // Serial per-set scratch.
  std::vector<Signature> sigs_;
  std::vector<SetId> probe_candidates_;
  // Block-parallel scratch, reused across blocks.
  std::vector<std::vector<Signature>> block_sigs_;
  std::vector<std::vector<SetId>> block_partners_;
  std::vector<kernels::Posting> block_postings_;
};

}  // namespace ssjoin::pipeline
