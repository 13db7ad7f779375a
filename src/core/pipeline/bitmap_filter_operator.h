// BitmapFilterOperator: the XOR-bitmap pre-filter as a pipeline stage
// (DESIGN.md Sections 11 and 13). Only present in a plan when
// options.bitmap_bits != 0.
//
// The tables are built when the first batch (or the end of an empty
// stream) arrives — i.e. after candidate generation, unless the chain
// degraded. Self-shaped inputs alias one table for both sides; the
// binary mode builds two. Guard memory is charged exactly as the
// drivers charged it. The build is part of this operator's self-time,
// which feeds JoinStats::postfilter_seconds.
//
// Per batch the operator fills chunk.bitmap_checked/bitmap_pruned and
// compacts chunk.packed to the survivors, preserving candidate order.
// Chunks are filtered range-parallel over the pool and compacted in
// range order. It never touches JoinStats: VerifyOperator commits the
// tallies after the chunk's guard barrier, which is what keeps
// partial-trip accounting byte-identical to the legacy verify loop.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/kernels/bitmap_filter.h"
#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class BitmapFilterOperator : public Operator {
 public:
  explicit BitmapFilterOperator(ExecContext* ctx);

  Status NextBatch(Batch* out) override;

 private:
  // Survivors and bitmap tallies of one contiguous range of a chunk.
  struct RangeTally {
    size_t kept = 0;
    uint64_t checked = 0;
    uint64_t pruned = 0;
  };

  void Build();
  // Compacts `packed` to its survivors (the first `kept` slots).
  RangeTally FilterRange(std::span<uint64_t> packed) const;
  void FilterChunk(CandidateChunk* chunk);

  bool ready_ = false;
  kernels::BitmapTable bitmap_l_;
  kernels::BitmapTable bitmap_r_;
  const kernels::BitmapTable* bm_l_ = nullptr;
  const kernels::BitmapTable* bm_r_ = nullptr;
};

}  // namespace ssjoin::pipeline
