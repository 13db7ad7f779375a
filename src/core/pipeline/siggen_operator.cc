#include "core/pipeline/siggen_operator.h"

#include <vector>

#include "core/execution_guard.h"
#include "core/signature_scheme.h"
#include "obs/join_telemetry.h"
#include "util/thread_pool.h"

namespace ssjoin::pipeline {
namespace {

// Signature generation, fanned out per set into thread-local CSR chunks
// that are stitched back in set order — the layout is identical to the
// serial loop for any thread count. A tripped/cancelled guard stops the
// pass early; the caller must discard the (incomplete) chunk when
// guard->tripped().
SignatureChunk GenerateAll(const SetCollection& input,
                           const SignatureScheme& scheme, ThreadPool& pool,
                           ExecutionGuard* guard) {
  size_t chunks = pool.size();
  if (chunks == 1 || input.size() < 2 * chunks) {
    SignatureChunk table;
    table.offsets.reserve(input.size() + 1);
    table.offsets.push_back(0);
    std::vector<Signature> scratch;
    for (SetId id = 0; id < input.size(); ++id) {
      if (guard != nullptr && (id & 255u) == 0 &&
          guard->ShouldStop(JoinPhase::kSigGen)) {
        break;
      }
      GenerateSorted(scheme, input.set(id), &scratch);
      table.values.insert(table.values.end(), scratch.begin(),
                          scratch.end());
      table.offsets.push_back(table.values.size());
    }
    return table;
  }

  std::vector<SignatureChunk> parts(chunks);
  ParallelFor(
      pool, input.size(),
      [&](size_t begin, size_t end, size_t c) {
        SignatureChunk& part = parts[c];
        // With a guard the chunk arrives as several sub-blocks; only the
        // first one plants the leading CSR offset.
        if (part.offsets.empty()) part.offsets.push_back(0);
        std::vector<Signature> scratch;
        for (size_t id = begin; id < end; ++id) {
          GenerateSorted(scheme, input.set(static_cast<SetId>(id)), &scratch);
          part.values.insert(part.values.end(), scratch.begin(),
                             scratch.end());
          part.offsets.push_back(part.values.size());
        }
      },
      StopFn(guard, JoinPhase::kSigGen));

  SignatureChunk table;
  size_t total = 0;
  for (const SignatureChunk& part : parts) total += part.values.size();
  table.values.reserve(total);
  table.offsets.reserve(input.size() + 1);
  table.offsets.push_back(0);
  for (SignatureChunk& part : parts) {
    size_t base = table.values.size();
    table.values.insert(table.values.end(), part.values.begin(),
                        part.values.end());
    for (size_t i = 1; i < part.offsets.size(); ++i) {
      table.offsets.push_back(base + part.offsets[i]);
    }
  }
  return table;
}

}  // namespace

Status SigGenOperator::NextBatch(Batch* out) {
  if (done_) return Status::OK();  // out is already an end batch
  done_ = true;
  ExecutionGuard* guard = ctx_->guard;
  JoinStats& stats = ctx_->result->stats;
  if (guard != nullptr) {
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSigGen));
  }
  const bool binary = ctx_->right != nullptr;
  {
    auto scope =
        ctx_->telem->Phase(kPhaseSigGen, &stats.siggen_seconds);
    left_ = GenerateAll(*ctx_->left, *ctx_->scheme, *ctx_->pool, guard);
    if (binary && (guard == nullptr || !guard->tripped())) {
      right_ = GenerateAll(*ctx_->right, *ctx_->scheme, *ctx_->pool, guard);
    }
  }
  if (guard != nullptr && guard->tripped()) {
    // Stopped mid-SigGen: the chunk is incomplete, commit nothing.
    return guard->trip_status();
  }
  stats.signatures_r = left_.total();
  stats.signatures_s = binary ? right_.total() : left_.total();
  ctx_->telem->PhaseAttr("signatures",
                         left_.total() + (binary ? right_.total() : 0));
  rows_in_ = ctx_->left->size() + (binary ? ctx_->right->size() : 0);
  rows_out_ = left_.total() + (binary ? right_.total() : 0);
  out->kind = Batch::Kind::kSignatures;
  out->signatures_l = &left_;
  out->signatures_r = binary ? &right_ : nullptr;
  return Status::OK();
}

void SigGenOperator::Close() { Operator::Close(); }

}  // namespace ssjoin::pipeline
