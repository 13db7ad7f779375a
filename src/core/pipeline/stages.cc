#include "core/pipeline/stages.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/execution_guard.h"
#include "core/signature_scheme.h"
#include "core/spill/spill_join.h"
#include "obs/log.h"
#include "util/thread_pool.h"

namespace ssjoin::pipeline {
namespace {

const SetCollection& RightSide(const ExecContext& ctx) {
  return ctx.right != nullptr ? *ctx.right : *ctx.left;
}

// Verify spans a source's candidate vector splits into: the batches the
// source hands down the chain.
uint64_t SpanCount(size_t candidates) {
  return (candidates + kVerifySpan - 1) / kVerifySpan;
}

// Heap footprint of a table: what the guard is charged for it, and what
// the auto-spill check compares to the budget.
size_t TableBytes(const SignatureTable& table) {
  return table.values.size() * sizeof(Signature) +
         table.offsets.size() * sizeof(size_t);
}

// Builds the XOR bitmap signature table for `input` with the rows
// sharded across the pool. Row contents are per-set independent, so the
// table is byte-identical for every thread count.
kernels::BitmapTable BuildBitmap(const SetCollection& input,
                                 ThreadPool& pool) {
  kernels::BitmapTable table = kernels::BitmapTable::Prepare(input.size());
  ParallelFor(pool, input.size(),
              [&](size_t begin, size_t end, size_t) {
                table.BuildRange(input, begin, end);
              });
  return table;
}

// Survivors and bitmap tallies of one contiguous range of a span.
struct RangeTally {
  size_t kept = 0;
  BitmapTally bitmap;
};

// Compacts `range` to the pairs the bitmaps cannot rule out (the first
// `kept` slots). Pruned pairs are provably non-matching; verify counts
// them as false positives, so results/false_positives equal those of
// verifying every candidate.
RangeTally FilterRange(const ExecContext& ctx, const BitmapTables& tables,
                       std::span<uint64_t> range) {
  const SetCollection& r = *ctx.left;
  const SetCollection& s = RightSide(ctx);
  const kernels::BitmapTable& bm_r = tables.left;
  const kernels::BitmapTable& bm_s =
      ctx.right != nullptr ? tables.right : tables.left;
  RangeTally tally;
  for (uint64_t pair : range) {
    auto [id_r, id_s] = UnpackPair(pair);
    ++tally.bitmap.checked;
    if (!kernels::BitmapTable::MayMatch(
            *ctx.predicate, bm_r.row(id_r), bm_s.row(id_s),
            static_cast<uint32_t>(r.set(id_r).size()),
            static_cast<uint32_t>(s.set(id_s).size()))) {
      ++tally.bitmap.pruned;
      continue;
    }
    range[tally.kept++] = pair;
  }
  return tally;
}

}  // namespace

SignatureTable GenerateAll(const SetCollection& input, size_t begin,
                           size_t end, const SignatureScheme& scheme,
                           ThreadPool& pool, ExecutionGuard* guard) {
  const size_t sets = end - begin;
  std::vector<SignatureTable> parts(pool.size());
  ParallelFor(
      pool, sets,
      [&](size_t first, size_t last, size_t c) {
        SignatureTable& part = parts[c];
        // With a guard the part arrives as several sub-blocks; only the
        // first one plants the leading CSR offset.
        if (part.offsets.empty()) {
          part.offsets.reserve(ChunkOf(sets, parts.size(), c).size() + 1);
          part.offsets.push_back(0);
        }
        std::vector<Signature> scratch;
        for (size_t i = first; i < last; ++i) {
          GenerateSorted(scheme, input.set(static_cast<SetId>(begin + i)),
                         &scratch);
          part.values.insert(part.values.end(), scratch.begin(),
                             scratch.end());
          part.offsets.push_back(part.values.size());
        }
      },
      StopFn(guard, JoinPhase::kSigGen));

  if (parts.size() == 1) {
    // The one part already is the table: move it rather than copy.
    if (parts[0].offsets.empty()) parts[0].offsets.push_back(0);
    return std::move(parts[0]);
  }
  SignatureTable table;
  size_t total = 0;
  for (const SignatureTable& part : parts) total += part.values.size();
  table.values.reserve(total);
  table.offsets.reserve(sets + 1);
  table.offsets.push_back(0);
  for (SignatureTable& part : parts) {
    size_t base = table.values.size();
    table.values.insert(table.values.end(), part.values.begin(),
                        part.values.end());
    for (size_t i = 1; i < part.offsets.size(); ++i) {
      table.offsets.push_back(base + part.offsets[i]);
    }
  }
  return table;
}

std::vector<uint64_t> UnionSorted(std::vector<std::vector<uint64_t>> lists,
                                  ThreadPool& pool,
                                  const std::function<bool()>& stop) {
  while (lists.size() > 1) {
    const size_t pairs = lists.size() / 2;
    // Each round's outputs are sized and allocated here, on the calling
    // thread: buffers a pool worker allocated would land in that
    // worker's malloc arena, which keeps the freed rounds resident.
    std::vector<std::vector<uint64_t>> next(pairs + lists.size() % 2);
    for (size_t p = 0; p < pairs; ++p) {
      next[p].reserve(lists[2 * p].size() + lists[2 * p + 1].size());
    }
    ParallelFor(pool, pairs, [&](size_t begin, size_t end, size_t) {
      for (size_t p = begin; p < end; ++p) {
        if (stop && stop()) return;
        const std::vector<uint64_t>& a = lists[2 * p];
        const std::vector<uint64_t>& b = lists[2 * p + 1];
        std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                       std::back_inserter(next[p]));
      }
    });
    if (lists.size() % 2) next.back() = std::move(lists.back());
    lists = std::move(next);
    if (stop && stop()) break;
  }
  return std::move(lists[0]);
}

Status GenerateSignatures(const ExecContext& ctx, obs::Stage* stage,
                          SignatureTable* left, SignatureTable* right) {
  obs::Stage::Timed timed(stage);
  ExecutionGuard* guard = ctx.guard;
  JoinStats& stats = ctx.result->stats;
  if (guard != nullptr) {
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSigGen));
  }
  const bool binary = ctx.right != nullptr;
  *left = GenerateAll(*ctx.left, 0, ctx.left->size(), *ctx.scheme,
                      *ctx.pool, guard);
  if (binary && (guard == nullptr || !guard->tripped())) {
    *right = GenerateAll(*ctx.right, 0, ctx.right->size(), *ctx.scheme,
                         *ctx.pool, guard);
  }
  if (guard != nullptr && guard->tripped()) {
    // Stopped mid-SigGen: the table is incomplete, commit nothing.
    return guard->trip_status();
  }
  stats.signatures_r = left->total();
  stats.signatures_s = binary ? right->total() : left->total();
  stage->rows_in = ctx.left->size() + (binary ? ctx.right->size() : 0);
  stage->rows_out = left->total() + right->total();
  timed.Produced();
  return Status::OK();
}

bool ExceedsSpillBudget(const ExecContext& ctx, const SignatureTable& left,
                        const SignatureTable& right) {
  const ExecutionGuard* guard = ctx.guard;
  if (ctx.options->spill.policy != SpillPolicy::kAuto || guard == nullptr ||
      guard->budget().memory_budget_bytes == 0) {
    return false;
  }
  return guard->memory_charged() + TableBytes(left) + TableBytes(right) >
         guard->budget().memory_budget_bytes;
}

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
      // thread), excluded from the deterministic export.
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
  std::vector<uint64_t> candidates = UnionSorted(std::move(lists), pool, stop);
  stats->candidates = candidates.size();
  return candidates;
}

Status PairCandidates(const ExecContext& ctx, obs::Stage* stage,
                      SignatureTable* left, SignatureTable* right,
                      std::vector<uint64_t>* candidates) {
  obs::Stage::Timed timed(stage);
  ExecutionGuard* guard = ctx.guard;
  JoinStats& stats = ctx.result->stats;
  ThreadPool& pool = *ctx.pool;
  const bool binary = ctx.right != nullptr;
  if (guard != nullptr) {
    guard->ChargeMemory(TableBytes(*left) + TableBytes(*right));
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
  }

  std::function<bool()> stop = StopFn(guard, JoinPhase::kCandGen);
  const size_t buckets = kernels::PostingBuckets(
      std::max(left->total(), right->total()), pool.size());
  // Groups one side's table, then frees it: the grouped postings are
  // all candidate generation reads from here on.
  auto group = [&](SignatureTable* table) {
    std::vector<kernels::PostingShard> shards = kernels::GroupPostings(
        table->values, table->offsets, buckets, pool, stop);
    *table = SignatureTable();
    return shards;
  };
  {  // the grouped postings are freed before the candidates are charged
    std::vector<kernels::PostingShard> shards_l = group(left);
    std::vector<kernels::PostingShard> shards_r;
    if (binary) shards_r = group(right);
    *candidates = GenerateCandidates(shards_l, binary ? &shards_r : nullptr,
                                     pool, stop, &stats, ctx.telem);
  }
  if (guard != nullptr && guard->tripped()) {
    // Stopped mid-CandGen: its counters are partial garbage, drop them.
    stats.signature_collisions = 0;
    stats.candidates = 0;
    return guard->trip_status();
  }
  if (guard != nullptr) {
    guard->ChargeMemory(candidates->size() * sizeof(uint64_t));
  }
  stage->rows_out = stats.candidates;
  timed.Produced(SpanCount(candidates->size()));
  return Status::OK();
}

Status PartitionCandidates(const ExecContext& ctx, obs::Stage* stage,
                           std::vector<uint64_t>* candidates) {
  obs::Stage::Timed timed(stage);
  ExecutionGuard* guard = ctx.guard;
  JoinStats& stats = ctx.result->stats;
  const JoinOptions& options = *ctx.options;
  stage->rows_in =
      ctx.left->size() + (ctx.right != nullptr ? ctx.right->size() : 0);
  if (guard != nullptr) {
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSigGen));
  }
  uint32_t partitions = options.spill.partitions != 0
                            ? options.spill.partitions
                            : spill::kDefaultPartitions;
  uint64_t retries = 0;
  while (true) {
    JoinStats attempt;
    Status st = spill::RunAttempt(ctx, partitions, &attempt, candidates);
    // I/O bytes accumulate across attempts: failed work was still disk
    // traffic the join paid for.
    stats.spill_bytes_written += attempt.spill_bytes_written;
    stats.spill_bytes_read += attempt.spill_bytes_read;
    stats.spill_partitions = partitions;
    stats.spill_retries = retries;
    if (st.ok()) {
      stats.signatures_r = attempt.signatures_r;
      stats.signatures_s = attempt.signatures_s;
      stats.signature_collisions = attempt.signature_collisions;
      stats.candidates = attempt.candidates;
      break;
    }
    // Guard trips are final (the budget does not heal by retrying) and
    // only I/O failures are transient; everything else surrenders too.
    const bool retryable = st.code() == StatusCode::kIOError &&
                           (guard == nullptr || !guard->tripped()) &&
                           retries < spill::kMaxRetries;
    if (!retryable) {
      // A trip or exhausted retry keeps the completed-signature counts
      // (deterministic: the write stage either finished or reports 0)
      // but no candidate accounting: those counters stopped mid-flight.
      stats.signatures_r = attempt.signatures_r;
      stats.signatures_s = attempt.signatures_s;
      return st;
    }
    ++retries;
    obs::LogEvent(options.log, obs::LogLevel::kWarn, "spill_retry",
                  {{"attempt", retries},
                   {"partitions", static_cast<uint64_t>(partitions)},
                   {"error", st.ToString()}});
    // Fewer, larger partitions: the common spill failure modes are
    // per-file (descriptor limits, quota on file count), so halving is
    // the retry that changes the attempt instead of repeating it.
    partitions = std::max(1u, partitions / 2);
  }
  if (guard != nullptr) {
    guard->ChargeMemory(candidates->size() * sizeof(uint64_t));
  }
  stage->rows_out = stats.candidates;
  timed.Produced(SpanCount(candidates->size()));
  return Status::OK();
}

void BuildBitmaps(const ExecContext& ctx, obs::Stage* stage,
                  BitmapTables* tables) {
  obs::Stage::Timed timed(stage);
  tables->left = BuildBitmap(*ctx.left, *ctx.pool);
  if (ctx.right != nullptr) tables->right = BuildBitmap(*ctx.right, *ctx.pool);
  if (ctx.guard != nullptr) {
    ctx.guard->ChargeMemory(tables->left.size_bytes() +
                            tables->right.size_bytes());
  }
}

size_t FilterSpan(const ExecContext& ctx, obs::Stage* stage,
                  const BitmapTables& tables, std::span<uint64_t> span,
                  BitmapTally* tally) {
  obs::Stage::Timed timed(stage);
  stage->rows_in += span.size();
  const size_t ranges = ctx.pool->size();
  std::vector<RangeTally> tallies(ranges);
  ParallelFor(*ctx.pool, span.size(),
              [&](size_t begin, size_t end, size_t c) {
                tallies[c] = FilterRange(ctx, tables,
                                         span.subspan(begin, end - begin));
              });
  // Sum the tallies and compact the survivors in range order, so the
  // span and the stats are byte-identical at every thread count.
  size_t kept = 0;
  for (size_t c = 0; c < ranges; ++c) {
    size_t begin = ChunkOf(span.size(), ranges, c).begin;
    if (kept != begin) {
      std::copy(span.begin() + begin, span.begin() + begin + tallies[c].kept,
                span.begin() + kept);
    }
    kept += tallies[c].kept;
    tally->checked += tallies[c].bitmap.checked;
    tally->pruned += tallies[c].bitmap.pruned;
  }
  stage->rows_out += kept;
  timed.Produced();
  return kept;
}

Status VerifySpan(const ExecContext& ctx, obs::Stage* stage, size_t start,
                  std::span<const uint64_t> survivors,
                  const BitmapTally& tally,
                  std::vector<std::vector<SetPair>>* verified) {
  obs::Stage::Timed timed(stage);
  JoinStats& stats = ctx.result->stats;
  ExecutionGuard* guard = ctx.guard;
  if (guard != nullptr) {
    // The span barrier: the breaker sees the span's pre-filter start
    // offset against the results committed so far.
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kVerify));
    SSJOIN_RETURN_NOT_OK(guard->CheckBreaker(JoinPhase::kVerify, start,
                                             stats.results));
  }
  // The bitmap tallies commit only after the barrier passed: a trip above
  // leaves this span entirely uncounted.
  stats.bitmap_filter_checked += tally.checked;
  stats.bitmap_filter_pruned += tally.pruned;
  stats.false_positives += tally.pruned;
  stage->rows_in += survivors.size();

  // Evaluate range-parallel. The span is a contiguous slice of a
  // deterministically ordered candidate sequence, so the per-range
  // outputs, read in range order, are in candidate order at any thread
  // count.
  const SetCollection& r = *ctx.left;
  const SetCollection& s = RightSide(ctx);
  const size_t ranges = ctx.pool->size();
  verified->resize(ranges);
  for (std::vector<SetPair>& range : *verified) range.clear();
  auto evaluate = [&] {
    ParallelFor(*ctx.pool, survivors.size(),
                [&](size_t begin, size_t end, size_t c) {
                  std::vector<SetPair>& mine = (*verified)[c];
                  mine.reserve((end - begin) / 4 + 1);
                  for (size_t i = begin; i < end; ++i) {
                    auto [id_r, id_s] = UnpackPair(survivors[i]);
                    if (ctx.predicate->Evaluate(r.set(id_r), s.set(id_s))) {
                      mine.emplace_back(id_r, id_s);
                    }
                  }
                });
  };
  if (guard != nullptr) {
    obs::MetricsRegistry* metrics = ctx.telem->metrics();
    auto sample = ctx.telem->Sample(
        "verify_chunk", metrics != nullptr
                            ? &metrics->histogram("join.verify.chunk_micros")
                            : nullptr);
    evaluate();
  } else {
    evaluate();
  }
  size_t appended = 0;
  for (const std::vector<SetPair>& range : *verified) appended += range.size();
  stats.results += appended;
  stats.false_positives += survivors.size() - appended;
  if (guard != nullptr) guard->ChargeMemory(appended * sizeof(SetPair));
  stage->rows_out += appended;
  timed.Produced();
  return Status::OK();
}

Status FinishVerify(const ExecContext& ctx, obs::Stage* stage,
                    size_t candidates) {
  obs::Stage::Timed timed(stage);
  ExecutionGuard* guard = ctx.guard;
  if (guard == nullptr) return Status::OK();
  if (candidates == 0) {
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kVerify));
  }
  return guard->CheckBreaker(JoinPhase::kVerify, candidates,
                             ctx.result->stats.results);
}

void EmitPairs(const ExecContext& ctx, obs::Stage* stage,
               const std::vector<std::vector<SetPair>>& verified) {
  obs::Stage::Timed timed(stage);
  std::vector<SetPair>& pairs = ctx.result->pairs;
  const size_t before = pairs.size();
  for (const std::vector<SetPair>& range : verified) {
    pairs.insert(pairs.end(), range.begin(), range.end());
  }
  stage->rows_in += pairs.size() - before;
  stage->rows_out += pairs.size() - before;
  timed.Produced();
}

}  // namespace ssjoin::pipeline
