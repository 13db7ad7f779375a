#include "core/pipeline/stages.h"

#include <algorithm>
#include <functional>
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

kernels::PairFilter BitmapFilter(const ExecContext& ctx,
                                 const BitmapTables& tables) {
  const SetCollection& r = *ctx.left;
  const SetCollection& s = RightSide(ctx);
  const kernels::BitmapTable& bm_r = tables.left;
  const kernels::BitmapTable& bm_s =
      ctx.right != nullptr ? tables.right : tables.left;
  const Predicate& predicate = *ctx.predicate;
  // Pruned pairs are provably non-matching; verify counts them as false
  // positives, so results/false_positives equal those of verifying every
  // candidate.
  return [&r, &s, &bm_r, &bm_s, &predicate](uint64_t pair) {
    auto [id_r, id_s] = UnpackPair(pair);
    return kernels::BitmapTable::MayMatch(
        predicate, bm_r.row(id_r), bm_s.row(id_s),
        static_cast<uint32_t>(r.set(id_r).size()),
        static_cast<uint32_t>(s.set(id_s).size()));
  };
}

kernels::ShardScope ShardSamples(obs::JoinTelemetry* telem) {
  obs::MetricsRegistry* metrics = telem->metrics();
  if (metrics == nullptr && !telem->tracing()) return {};
  obs::Histogram* occurrences =
      metrics != nullptr ? &metrics->histogram("join.shard.candidates")
                         : nullptr;
  obs::Histogram* micros =
      metrics != nullptr ? &metrics->histogram("join.shard.micros") : nullptr;
  return [telem, occurrences, micros](size_t shard, uint64_t pairs,
                                      const std::function<void()>& scatter) {
    {
      // Runtime span per shard (lane = shard + 1; lane 0 is the control
      // thread), excluded from the deterministic export.
      auto sample =
          telem->Sample("shard", micros, static_cast<uint32_t>(shard) + 1);
      scatter();
      if (sample.span() != obs::kNoSpan) {
        telem->tracer()->SetAttr(sample.span(), "signature_collisions",
                                 pairs);
      }
    }
    if (occurrences != nullptr) occurrences->Record(pairs);
  };
}

Status PairCandidates(const ExecContext& ctx, obs::Stage* stage,
                      const BitmapTables& bitmaps, SignatureTable* left,
                      SignatureTable* right, kernels::Survivors* survivors) {
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
  std::vector<kernels::PostingShard> shards_l = group(left);
  std::vector<kernels::PostingShard> shards_r;
  if (binary) shards_r = group(right);
  kernels::CandidateBuckets candidates(MaxFirstId(ctx), 1);
  if (candidates.Add(&shards_l, binary ? &shards_r : nullptr, pool, stop,
                     ShardSamples(ctx.telem))) {
    stats.signature_collisions = candidates.collisions();
    *survivors = candidates.Filter(BitmapFilter(ctx, bitmaps), pool, stop);
    stats.candidates = survivors->candidates;
  }
  if (guard != nullptr && guard->tripped()) {
    // Stopped mid-CandGen: its counters are partial garbage, drop them.
    stats.signature_collisions = 0;
    stats.candidates = 0;
    *survivors = kernels::Survivors();
    return guard->trip_status();
  }
  if (guard != nullptr) {
    guard->ChargeMemory(stats.candidates * sizeof(uint64_t));
  }
  stage->rows_out = stats.candidates;
  timed.Produced(SpanCount(stats.candidates));
  return Status::OK();
}

Status PartitionCandidates(const ExecContext& ctx, obs::Stage* stage,
                           const BitmapTables& bitmaps, SignatureTable* left,
                           SignatureTable* right,
                           kernels::Survivors* survivors) {
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
    Status st = spill::RunAttempt(ctx, partitions, bitmaps, left, right,
                                  &attempt, survivors);
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
    guard->ChargeMemory(stats.candidates * sizeof(uint64_t));
  }
  stage->rows_out = stats.candidates;
  timed.Produced(SpanCount(stats.candidates));
  return Status::OK();
}

void BuildBitmaps(const ExecContext& ctx, obs::Stage* stage,
                  BitmapTables* tables) {
  obs::Stage::Timed timed(stage);
  tables->left = BuildBitmap(*ctx.left, *ctx.pool);
  if (ctx.right != nullptr) tables->right = BuildBitmap(*ctx.right, *ctx.pool);
}

BitmapTally TallySpan(obs::Stage* stage, uint64_t checked, uint64_t kept) {
  obs::Stage::Timed timed(stage);
  stage->rows_in += checked;
  stage->rows_out += kept;
  timed.Produced();
  return {checked, checked - kept};
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

  // Evaluate in contiguous ranges. The span is a contiguous slice of a
  // deterministically ordered survivor sequence, so the per-range
  // outputs, read in range order, are in candidate order at any thread
  // count.
  const SetCollection& r = *ctx.left;
  const SetCollection& s = RightSide(ctx);
  const bool parallel = survivors.size() >= kParallelVerifyMin;
  verified->resize(parallel ? ctx.pool->size() : 1);
  for (std::vector<SetPair>& range : *verified) range.clear();
  auto evaluate_range = [&](size_t begin, size_t end, size_t c) {
    std::vector<SetPair>& mine = (*verified)[c];
    mine.reserve((end - begin) / 4 + 1);
    for (size_t i = begin; i < end; ++i) {
      auto [id_r, id_s] = UnpackPair(survivors[i]);
      if (ctx.predicate->Evaluate(r.set(id_r), s.set(id_s))) {
        mine.emplace_back(id_r, id_s);
      }
    }
  };
  auto evaluate = [&] {
    if (parallel) {
      ParallelFor(*ctx.pool, survivors.size(), evaluate_range);
    } else {
      evaluate_range(0, survivors.size(), 0);
    }
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
