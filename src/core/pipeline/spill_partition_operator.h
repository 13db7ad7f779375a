// SpillPartitionOperator: source for the out-of-core execution path
// (DESIGN.md Sections 12 and 13). Wraps the spill layer's retry loop —
// each attempt writes both sides into partition files and merges
// per-partition candidate generation (spill::RunAttempt),
// halving the partition count after a transient I/O failure — and then
// streams the merged, globally sorted candidate vector out in verify
// super-chunks. Guard trips are final; exhausted retries surrender with
// the completed-signature counts but no candidate accounting. Signature
// generation happens inside the attempts, so the operator's whole
// self-time — every attempt's — feeds JoinStats::candpair_seconds and
// siggen_seconds stays 0.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class SpillPartitionOperator : public Operator {
 public:
  explicit SpillPartitionOperator(ExecContext* ctx)
      : Operator(ctx, "SpillPartition", "partitioned",
                 obs::names::kOpSpillPartition,
                 &JoinStats::candpair_seconds) {}

  Status NextBatch(Batch* out) override;

 private:
  Status Produce();

  bool produced_ = false;
  std::vector<uint64_t> candidates_;
  size_t pos_ = 0;
};

}  // namespace ssjoin::pipeline
