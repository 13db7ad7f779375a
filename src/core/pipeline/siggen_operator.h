// SigGenOperator: the sorted drivers' signature-generation phase as a
// source operator (DESIGN.md Section 13). Emits exactly one
// kSignatures batch — the whole left (and, for the binary mode, right)
// side as CSR SignatureChunks — then an end batch.
//
// Phase contract, identical to the legacy drivers: the kSigGen
// checkpoint runs first; generation fans out per set into thread-local
// CSR parts stitched in set order, so the chunk is byte-identical for
// every thread count; signatures_r/s are committed only when generation
// completed untripped. Its self-time feeds JoinStats::siggen_seconds.

#pragma once

#include "core/pipeline/operator.h"

namespace ssjoin::pipeline {

class SigGenOperator : public Operator {
 public:
  explicit SigGenOperator(ExecContext* ctx)
      : Operator(ctx, "SigGen", "csr", obs::names::kOpSigGen,
                 &JoinStats::siggen_seconds) {}

  Status NextBatch(Batch* out) override;

 private:
  bool done_ = false;
  SignatureChunk left_;
  SignatureChunk right_;
};

}  // namespace ssjoin::pipeline
