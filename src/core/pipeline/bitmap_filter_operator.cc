#include "core/pipeline/bitmap_filter_operator.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/driver_internal.h"
#include "core/execution_guard.h"
#include "obs/join_telemetry.h"
#include "util/thread_pool.h"

namespace ssjoin::pipeline {

BitmapFilterOperator::BitmapFilterOperator(ExecContext* ctx, bool eager)
    : Operator(ctx, "BitmapFilter",
               std::to_string(ctx->options->bitmap_bits) + "-bit " +
                   (eager ? "eager" : "deferred"),
               obs::names::kOpBitmapFilter),
      eager_(eager) {}

Status BitmapFilterOperator::Open() {
  if (!eager_) return Status::OK();
  // Pipelined discipline: rows for the whole input are built upfront
  // (ids are known even though the index grows incrementally), inside
  // the postfilter clock — it is verification infrastructure. The
  // serial path builds without the pool, exactly as the serial
  // pipelined driver did.
  ExecutionGuard* guard = ctx_->guard;
  auto scope = ctx_->telem->Time(&ctx_->result->stats.postfilter_seconds);
  if (ctx_->pool->size() == 1) {
    bitmap_l_ =
        kernels::BitmapTable::Build(*ctx_->left, ctx_->options->bitmap_bits);
  } else {
    bitmap_l_ = detail::BuildBitmap(*ctx_->left, ctx_->options->bitmap_bits,
                                    *ctx_->pool);
  }
  if (guard != nullptr) {
    guard->ChargeMemory(bitmap_l_.size_bytes());
    ctx_->degrade_release_bytes += bitmap_l_.size_bytes();
  }
  bm_l_ = &bitmap_l_;
  bm_r_ = &bitmap_l_;
  ready_ = true;
  return Status::OK();
}

Status BitmapFilterOperator::EnsureReady() {
  if (ready_) return Status::OK();
  ready_ = true;
  // Deferred discipline: the PostFilter phase opens here — it covers
  // the table build, as the sorted/spilled drivers' phase scope did —
  // and VerifyOperator::Close ends it after the last chunk.
  ctx_->telem->PhaseBegin(obs::kPhasePostFilter,
                          &ctx_->result->stats.postfilter_seconds);
  ctx_->postfilter_phase_open = true;
  ExecutionGuard* guard = ctx_->guard;
  uint32_t bits = ctx_->options->bitmap_bits;
  bitmap_l_ = detail::BuildBitmap(*ctx_->left, bits, *ctx_->pool);
  bm_l_ = &bitmap_l_;
  if (ctx_->right != nullptr) {
    bitmap_r_ = detail::BuildBitmap(*ctx_->right, bits, *ctx_->pool);
    bm_r_ = &bitmap_r_;
  } else {
    bm_r_ = &bitmap_l_;  // self-shaped: one table serves both sides
  }
  if (guard != nullptr) {
    guard->ChargeMemory(
        bitmap_l_.size_bytes() +
        (ctx_->right != nullptr ? bitmap_r_.size_bytes() : 0));
  }
  return Status::OK();
}

BitmapFilterOperator::RangeTally BitmapFilterOperator::FilterRange(
    std::span<uint64_t> packed) const {
  const SetCollection& r = *ctx_->left;
  const SetCollection& s = ctx_->right != nullptr ? *ctx_->right : *ctx_->left;
  const Predicate& predicate = *ctx_->predicate;
  RangeTally tally;
  for (uint64_t pair : packed) {
    auto [id_r, id_s] = UnpackPair(pair);
    if (detail::BitmapPrunes(bm_l_, bm_r_, predicate, id_r, id_s,
                             r.set(id_r).size(), s.set(id_s).size(),
                             &tally.checked, &tally.pruned)) {
      continue;
    }
    packed[tally.kept++] = pair;
  }
  return tally;
}

void BitmapFilterOperator::FilterChunk(CandidateChunk* chunk) {
  std::vector<uint64_t>& packed = chunk->packed;
  // Deferred: range-parallel over the pool. Eager chunks are one
  // pipelined barrier group each and stay serial.
  const size_t ranges = eager_ ? 1 : ctx_->pool->size();
  std::vector<RangeTally> tallies(ranges);
  auto filter = [&](size_t begin, size_t end, size_t c) {
    tallies[c] = FilterRange({packed.data() + begin, end - begin});
  };
  if (ranges == 1) {
    filter(0, packed.size(), 0);
  } else {
    ParallelFor(*ctx_->pool, packed.size(), filter);
  }
  // Sum the tallies and compact the survivors in range order, so chunk
  // contents and stats are byte-identical at every thread count.
  size_t kept = 0;
  for (size_t c = 0; c < ranges; ++c) {
    size_t begin = ChunkOf(packed.size(), ranges, c).begin;
    if (kept != begin) {
      std::copy(packed.begin() + begin,
                packed.begin() + begin + tallies[c].kept,
                packed.begin() + kept);
    }
    kept += tallies[c].kept;
    chunk->bitmap_checked += tallies[c].checked;
    chunk->bitmap_pruned += tallies[c].pruned;
  }
  packed.resize(kept);
}

Status BitmapFilterOperator::NextBatch(Batch* out) {
  SSJOIN_RETURN_NOT_OK(input_->Pull(out));
  if (!eager_ && !ctx_->degrade) {
    SSJOIN_RETURN_NOT_OK(EnsureReady());
  }
  if (out->kind != Batch::Kind::kCandidates) return Status::OK();
  CandidateChunk& chunk = out->candidates;
  rows_in_ += chunk.packed.size();
  if (eager_) {
    auto scope = ctx_->telem->Time(&ctx_->result->stats.postfilter_seconds);
    FilterChunk(&chunk);
  } else {
    FilterChunk(&chunk);  // the open PostFilter phase clock covers this
  }
  rows_out_ += chunk.packed.size();
  return Status::OK();
}

void BitmapFilterOperator::Close() { Operator::Close(); }

}  // namespace ssjoin::pipeline
