#include "core/pipeline/bitmap_filter_operator.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/execution_guard.h"
#include "util/thread_pool.h"

namespace ssjoin::pipeline {
namespace {

// Builds the XOR bitmap signature table for `input` with the rows
// sharded across the pool. Row contents are per-set independent, so the
// table is byte-identical for every thread count.
kernels::BitmapTable BuildBitmap(const SetCollection& input, uint32_t bits,
                                 ThreadPool& pool) {
  kernels::BitmapTable table =
      kernels::BitmapTable::Prepare(input.size(), bits);
  ParallelFor(pool, input.size(),
              [&](size_t begin, size_t end, size_t) {
                table.BuildRange(input, begin, end);
              });
  return table;
}

// Returns true when the pair was pruned (provably non-matching). Pruned
// pairs count as false positives, so results/false_positives stay
// byte-identical with the filter on or off.
inline bool BitmapPrunes(const kernels::BitmapTable* bm_r,
                         const kernels::BitmapTable* bm_s,
                         const Predicate& predicate, SetId id_r, SetId id_s,
                         size_t size_r, size_t size_s, uint64_t* checked,
                         uint64_t* pruned) {
  if (bm_r == nullptr) return false;
  ++*checked;
  if (kernels::BitmapTable::MayMatch(predicate, bm_r->row(id_r),
                                     bm_s->row(id_s), bm_r->words_per_set(),
                                     static_cast<uint32_t>(size_r),
                                     static_cast<uint32_t>(size_s))) {
    return false;
  }
  ++*pruned;
  return true;
}

}  // namespace

BitmapFilterOperator::BitmapFilterOperator(ExecContext* ctx)
    : Operator(ctx, "BitmapFilter",
               std::to_string(ctx->options->bitmap_bits) + "-bit deferred",
               obs::names::kOpBitmapFilter, &JoinStats::postfilter_seconds) {}

// Builds the tables once, for the whole input.
void BitmapFilterOperator::Build() {
  if (ready_) return;
  ready_ = true;
  uint32_t bits = ctx_->options->bitmap_bits;
  bitmap_l_ = BuildBitmap(*ctx_->left, bits, *ctx_->pool);
  bm_l_ = &bitmap_l_;
  if (ctx_->right != nullptr) {
    bitmap_r_ = BuildBitmap(*ctx_->right, bits, *ctx_->pool);
    bm_r_ = &bitmap_r_;
  } else {
    bm_r_ = &bitmap_l_;  // self-shaped: one table serves both sides
  }
  if (ctx_->guard != nullptr) {
    ctx_->guard->ChargeMemory(
        bitmap_l_.size_bytes() +
        (ctx_->right != nullptr ? bitmap_r_.size_bytes() : 0));
  }
}

BitmapFilterOperator::RangeTally BitmapFilterOperator::FilterRange(
    std::span<uint64_t> packed) const {
  const SetCollection& r = *ctx_->left;
  const SetCollection& s = ctx_->right != nullptr ? *ctx_->right : *ctx_->left;
  const Predicate& predicate = *ctx_->predicate;
  RangeTally tally;
  for (uint64_t pair : packed) {
    auto [id_r, id_s] = UnpackPair(pair);
    if (BitmapPrunes(bm_l_, bm_r_, predicate, id_r, id_s,
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
  const size_t ranges = ctx_->pool->size();
  std::vector<RangeTally> tallies(ranges);
  ParallelFor(*ctx_->pool, packed.size(),
              [&](size_t begin, size_t end, size_t c) {
                tallies[c] = FilterRange({packed.data() + begin, end - begin});
              });
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
  if (!ctx_->degrade) Build();
  if (out->kind != Batch::Kind::kCandidates) return Status::OK();
  CandidateChunk& chunk = out->candidates;
  rows_in_ += chunk.packed.size();
  FilterChunk(&chunk);
  rows_out_ += chunk.packed.size();
  return Status::OK();
}

void BitmapFilterOperator::Close() { Operator::Close(); }

}  // namespace ssjoin::pipeline
