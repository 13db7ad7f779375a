#include "core/pipeline/candidate_gen_operator.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "core/driver_internal.h"
#include "core/execution_guard.h"
#include "core/kernels/posting_groups.h"
#include "obs/join_telemetry.h"
#include "util/thread_pool.h"

namespace ssjoin::pipeline {

Status CandidateGenOperator::Produce(Batch* sigs) {
  ExecutionGuard* guard = ctx_->guard;
  JoinStats& stats = ctx_->result->stats;
  const JoinOptions& options = *ctx_->options;
  ThreadPool& pool = *ctx_->pool;
  SignatureChunk* table_l = sigs->signatures_l;
  SignatureChunk* table_r = sigs->signatures_r;
  const bool binary = table_r != nullptr;
  rows_in_ = table_l->total() + (binary ? table_r->total() : 0);

  // Auto-degradation arm point: with SpillPolicy::kAuto and a memory
  // budget, a signature table that would blow the budget reruns
  // out-of-core instead of tripping the guard (DESIGN.md Section 12).
  // The footprint is thread-count-independent, so the decision is
  // deterministic; the spilled driver re-generates signatures streaming,
  // so the tables are dropped here rather than carried across.
  const bool auto_spill = options.spill.policy == SpillPolicy::kAuto &&
                          guard != nullptr &&
                          guard->budget().memory_budget_bytes > 0;
  const size_t table_bytes = SignatureChunkBytes(*table_l) +
                             (binary ? SignatureChunkBytes(*table_r) : 0);
  if (auto_spill && guard->memory_charged() + table_bytes >
                        guard->budget().memory_budget_bytes) {
    *table_l = SignatureChunk();
    if (binary) *table_r = SignatureChunk();
    ctx_->degrade = true;
    return Status::OK();
  }
  if (guard != nullptr) {
    guard->ChargeMemory(table_bytes);
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
  }

  {
    auto scope =
        ctx_->telem->Phase(obs::kPhaseCandPair, &stats.candpair_seconds);
    std::function<bool()> stop = detail::StopFn(guard, JoinPhase::kCandGen);
    const size_t buckets = kernels::PostingBuckets(
        std::max(table_l->total(), binary ? table_r->total() : 0),
        pool.size());
    // Groups one side's CSR table, then frees it: the grouped postings
    // are all candidate generation reads from here on.
    auto group = [&](SignatureChunk* table) {
      std::vector<kernels::PostingShard> shards = kernels::GroupPostings(
          table->values, table->offsets, buckets, pool, stop);
      *table = SignatureChunk();
      return shards;
    };
    std::vector<kernels::PostingShard> shards_l = group(table_l);
    if (!binary) {
      candidates_ = detail::GenerateCandidates(
          pool,
          [&](size_t shard) {
            return kernels::SelfJoinShard(shards_l[shard], stop);
          },
          stop, &stats, ctx_->telem);
    } else {
      std::vector<kernels::PostingShard> shards_r = group(table_r);
      candidates_ = detail::GenerateCandidates(
          pool,
          [&](size_t shard) {
            return kernels::BinaryJoinShard(shards_l[shard], shards_r[shard],
                                            stop);
          },
          stop, &stats, ctx_->telem);
    }
  }
  if (guard != nullptr && guard->tripped()) {
    // Stopped mid-CandGen: its counters are partial garbage, drop them.
    stats.signature_collisions = 0;
    stats.candidates = 0;
    return guard->trip_status();
  }
  ctx_->telem->PhaseAttr("candidates", stats.candidates);
  if (guard != nullptr) {
    guard->ChargeMemory(candidates_.size() * sizeof(uint64_t));
  }
  rows_out_ = stats.candidates;
  return Status::OK();
}

Status CandidateGenOperator::NextBatch(Batch* out) {
  if (!produced_) {
    produced_ = true;
    SSJOIN_RETURN_NOT_OK(input_->Pull(out));
    Status st = Produce(out);
    out->signatures_l = nullptr;  // consumed; signatures never flow on
    out->signatures_r = nullptr;
    out->kind = Batch::Kind::kEnd;
    SSJOIN_RETURN_NOT_OK(st);
    if (ctx_->degrade || !ctx_->options->verify) return Status::OK();
  }
  EmitCandidateSlice(candidates_, &pos_, out);
  return Status::OK();
}

void CandidateGenOperator::Close() { Operator::Close(); }

}  // namespace ssjoin::pipeline
