#include "core/pipeline/verify_operator.h"

#include <vector>

#include "core/execution_guard.h"
#include "obs/join_telemetry.h"
#include "util/thread_pool.h"

namespace ssjoin::pipeline {

// Parallel evaluate over the chunk's surviving candidates. The chunk is
// a contiguous slice of a deterministically ordered candidate sequence,
// so concatenating the per-range outputs in range order yields
// chunk->verified in candidate order — the serial and every parallel
// execution produce the identical vector.
void VerifyOperator::EvaluateChunk(CandidateChunk* chunk) {
  JoinStats& stats = ctx_->result->stats;
  const SetCollection& r = *ctx_->left;
  const SetCollection& s = ctx_->right != nullptr ? *ctx_->right : *ctx_->left;
  const Predicate& predicate = *ctx_->predicate;
  ThreadPool& pool = *ctx_->pool;
  size_t ranges = pool.size();
  std::vector<std::vector<SetPair>> pairs(ranges);
  std::vector<uint64_t> results(ranges, 0);
  std::vector<uint64_t> false_positives(ranges, 0);
  ParallelFor(pool, chunk->packed.size(),
              [&](size_t begin, size_t end, size_t c) {
                std::vector<SetPair>& mine = pairs[c];
                mine.reserve((end - begin) / 4 + 1);
                uint64_t hits = 0, misses = 0;
                for (size_t i = begin; i < end; ++i) {
                  auto [id_r, id_s] = UnpackPair(chunk->packed[i]);
                  if (predicate.Evaluate(r.set(id_r), s.set(id_s))) {
                    mine.emplace_back(id_r, id_s);
                    ++hits;
                  } else {
                    ++misses;
                  }
                }
                results[c] = hits;
                false_positives[c] = misses;
              });
  size_t appended = 0;
  for (size_t c = 0; c < ranges; ++c) {
    chunk->verified.insert(chunk->verified.end(), pairs[c].begin(),
                           pairs[c].end());
    appended += pairs[c].size();
    stats.results += results[c];
    stats.false_positives += false_positives[c];
  }
  if (ctx_->guard != nullptr) {
    ctx_->guard->ChargeMemory(appended * sizeof(SetPair));
  }
  rows_out_ += appended;
}

Status VerifyOperator::VerifyChunk(CandidateChunk* chunk) {
  JoinStats& stats = ctx_->result->stats;
  ExecutionGuard* guard = ctx_->guard;
  if (guard != nullptr) {
    // The chunk boundary barrier: the first chunk's checkpoint is the
    // legacy pre-loop checkpoint, every later one the per-iteration
    // checkpoint; the breaker always sees the pre-filter start offset
    // against the results committed so far.
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kVerify));
    SSJOIN_RETURN_NOT_OK(guard->CheckBreaker(
        JoinPhase::kVerify, chunk->start_offset, stats.results));
  }
  any_chunk_ = true;
  total_pre_filter_ = chunk->start_offset + chunk->pre_filter_count;
  // Bitmap tallies commit only after the barrier passed: a trip above
  // must leave this chunk entirely uncounted (legacy partial-trip
  // accounting).
  stats.bitmap_filter_checked += chunk->bitmap_checked;
  stats.bitmap_filter_pruned += chunk->bitmap_pruned;
  stats.false_positives += chunk->bitmap_pruned;
  rows_in_ += chunk->packed.size();
  if (guard != nullptr) {
    if (!histogram_ready_) {
      histogram_ready_ = true;
      chunk_micros_ =
          ctx_->telem->metrics() != nullptr
              ? &ctx_->telem->metrics()->histogram("join.verify.chunk_micros")
              : nullptr;
    }
    auto sample = ctx_->telem->Sample("verify_chunk", chunk_micros_);
    EvaluateChunk(chunk);
  } else {
    EvaluateChunk(chunk);
  }
  return Status::OK();
}

Status VerifyOperator::NextBatch(Batch* out) {
  SSJOIN_RETURN_NOT_OK(input_->Pull(out));
  if (out->kind != Batch::Kind::kCandidates) {
    if (!ctx_->degrade && ctx_->guard != nullptr) {
      if (!any_chunk_) {
        SSJOIN_RETURN_NOT_OK(ctx_->guard->Checkpoint(JoinPhase::kVerify));
      }
      // Final breaker over the complete totals: a join whose explosion
      // only crosses the ratio in its last super-chunk still trips
      // (the trigger the PartEnum advisor-retry path keys off).
      SSJOIN_RETURN_NOT_OK(ctx_->guard->CheckBreaker(
          JoinPhase::kVerify, total_pre_filter_,
          ctx_->result->stats.results));
    }
    return Status::OK();
  }
  return VerifyChunk(&out->candidates);
}

void VerifyOperator::Close() { Operator::Close(); }

}  // namespace ssjoin::pipeline
