#include "core/pipeline/candidate_gen_operator.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "core/execution_guard.h"
#include "core/kernels/posting_groups.h"
#include "obs/join_telemetry.h"
#include "util/thread_pool.h"

namespace ssjoin::pipeline {

std::vector<uint64_t> GenerateCandidates(
    const std::vector<kernels::PostingShard>& shards_l,
    const std::vector<kernels::PostingShard>* shards_r, ThreadPool& pool,
    const std::function<bool()>& stop, JoinStats* stats,
    obs::JoinTelemetry* telem) {
  size_t shards = pool.size();
  std::vector<kernels::ShardCandidates> per_shard(shards);
  obs::Histogram* shard_candidates =
      telem->metrics() != nullptr
          ? &telem->metrics()->histogram("join.shard.candidates")
          : nullptr;
  obs::Histogram* shard_micros =
      telem->metrics() != nullptr
          ? &telem->metrics()->histogram("join.shard.micros")
          : nullptr;
  pool.RunOnAll([&](size_t shard) {
    {
      // Runtime span per shard (lane = shard + 1; lane 0 is the control
      // thread) — excluded from the deterministic export.
      auto sample = telem->Sample("shard", shard_micros,
                                  static_cast<uint32_t>(shard) + 1);
      per_shard[shard] =
          shards_r == nullptr
              ? kernels::SelfJoinShard(shards_l[shard], stop)
              : kernels::BinaryJoinShard(shards_l[shard], (*shards_r)[shard],
                                         stop);
      if (sample.span() != obs::kNoSpan) {
        telem->tracer()->SetAttr(
            sample.span(), "candidates",
            static_cast<uint64_t>(per_shard[shard].packed.size()));
      }
    }
    if (shard_candidates != nullptr) {
      shard_candidates->Record(per_shard[shard].packed.size());
    }
  });
  std::vector<std::vector<uint64_t>> lists;
  lists.reserve(shards);
  for (kernels::ShardCandidates& sc : per_shard) {
    stats->signature_collisions += sc.collisions;
    lists.push_back(std::move(sc.packed));
  }
  while (lists.size() > 1) {
    size_t pairs = lists.size() / 2;
    std::vector<std::vector<uint64_t>> next(pairs + lists.size() % 2);
    ParallelFor(pool, pairs, [&](size_t begin, size_t end, size_t) {
      for (size_t p = begin; p < end; ++p) {
        if (stop && stop()) return;
        const std::vector<uint64_t>& a = lists[2 * p];
        const std::vector<uint64_t>& b = lists[2 * p + 1];
        std::vector<uint64_t> merged;
        merged.reserve(a.size() + b.size());
        std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                       std::back_inserter(merged));
        next[p] = std::move(merged);
      }
    });
    if (lists.size() % 2) next.back() = std::move(lists.back());
    lists = std::move(next);
    if (stop && stop()) break;
  }
  std::vector<uint64_t> candidates = std::move(lists[0]);
  stats->candidates = candidates.size();
  return candidates;
}

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
  // deterministic; the spilled rerun re-generates signatures streaming,
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

  std::function<bool()> stop = StopFn(guard, JoinPhase::kCandGen);
  const size_t buckets = kernels::PostingBuckets(
      std::max(table_l->total(), binary ? table_r->total() : 0),
      pool.size());
  // Groups one side's CSR table, then frees it: the grouped postings are
  // all candidate generation reads from here on.
  auto group = [&](SignatureChunk* table) {
    std::vector<kernels::PostingShard> shards = kernels::GroupPostings(
        table->values, table->offsets, buckets, pool, stop);
    *table = SignatureChunk();
    return shards;
  };
  {  // the grouped postings are freed before the candidates are charged
    std::vector<kernels::PostingShard> shards_l = group(table_l);
    std::vector<kernels::PostingShard> shards_r;
    if (binary) shards_r = group(table_r);
    candidates_ = GenerateCandidates(shards_l, binary ? &shards_r : nullptr,
                                     pool, stop, &stats, ctx_->telem);
  }
  if (guard != nullptr && guard->tripped()) {
    // Stopped mid-CandGen: its counters are partial garbage, drop them.
    stats.signature_collisions = 0;
    stats.candidates = 0;
    return guard->trip_status();
  }
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
    if (ctx_->degrade) return Status::OK();
  }
  EmitCandidateSlice(candidates_, &pos_, out);
  return Status::OK();
}

void CandidateGenOperator::Close() { Operator::Close(); }

}  // namespace ssjoin::pipeline
