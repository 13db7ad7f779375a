// The join's stages as plain functions (DESIGN.md Section 13).
//
// Join() runs one fixed stage sequence, driven straight-line by RunJoin
// in core/ssjoin.cc:
//
//   in memory  siggen -> candgen -> bitmap_filter -> verify -> dedup_emit
//   spilled    spill_partition -> bitmap_filter -> verify -> dedup_emit
//
// An auto spill switches source after siggen, in the same pass and chain
// (siggen -> candgen -> spill_partition -> ...), and hands the spill
// layer the tables siggen already generated. The spill layer reuses
// GenerateAll and the candgen kernel (kernels::CandidateBuckets).
//
// The driver builds the bitmap tables before the source runs. The source
// (candgen or spill_partition) pairs up, dedups and bitmap-filters in
// one bucket pass, so it yields only the survivors, each with its offset
// in the sorted distinct candidate sequence; the candidate set itself is
// never built. The driver then walks that sequence in
// kVerifySpan-candidate spans: each span's filter rows are committed,
// its survivors are verified behind its guard barrier, and its pairs are
// appended to the result.
//
// Every stage function keeps its obs::Stage ledger (obs/join_telemetry.h):
// it times itself with a Stage::Timed scope and maintains the stage's
// row totals. The driver binds every stage of the chain before it runs
// and closes every one of them, in chain order, on every exit path.
//
// Determinism contract: every count a stage commits is derived from
// input order, never from scheduling, so pairs, JoinStats and the
// stable telemetry are byte-identical at any thread count.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/kernels/bitmap_filter.h"
#include "core/kernels/posting_groups.h"
#include "core/ssjoin.h"
#include "obs/join_telemetry.h"
#include "util/status.h"

namespace ssjoin {
class ExecutionGuard;
class ThreadPool;
}  // namespace ssjoin

namespace ssjoin::pipeline {

/// Everything the stages share for one join execution. Plain pointers:
/// the driver owns all of it.
struct ExecContext {
  const SetCollection* left = nullptr;
  /// Null for the self-join (the spilled self path included).
  const SetCollection* right = nullptr;
  const SignatureScheme* scheme = nullptr;
  const Predicate* predicate = nullptr;
  /// Spill policy already resolved (never SpillPolicy::kDefault).
  const JoinOptions* options = nullptr;
  ThreadPool* pool = nullptr;
  ExecutionGuard* guard = nullptr;
  obs::JoinTelemetry* telem = nullptr;
  JoinResult* result = nullptr;
};

/// One input side's flattened per-set signature lists (CSR): `values`
/// holds the concatenated, per-set-deduplicated Sign(set) lists;
/// `offsets` has collection.size() + 1 entries.
struct SignatureTable {
  std::vector<Signature> values;
  std::vector<size_t> offsets;

  uint64_t total() const { return values.size(); }
};

/// Candidates per verify span: the guarded verify barrier falls every
/// kVerifySpan candidates. Changing it moves where trips land mid-join,
/// which is part of the byte-identity contract the differential suite
/// pins.
inline constexpr size_t kVerifySpan = 16384;

/// Survivors a span needs before verify fans out over the pool: below
/// it, a fork-join costs more than it saves.
inline constexpr size_t kParallelVerifyMin = 1024;

/// The largest first id a candidate pair can have: the left side's last
/// set id (0 for an empty side).
inline SetId MaxFirstId(const ExecContext& ctx) {
  return ctx.left->size() == 0 ? 0 : static_cast<SetId>(ctx.left->size() - 1);
}

/// The SigGen routine: the signatures of sets [begin, end) of `input` as
/// a CSR table, generated range-parallel and stitched in set order (the
/// same at any thread count). A tripped guard stops it early; the caller
/// discards the table then. The spill layer calls it per chunk of sets.
SignatureTable GenerateAll(const SetCollection& input, size_t begin,
                           size_t end, const SignatureScheme& scheme,
                           ThreadPool& pool, ExecutionGuard* guard);

/// siggen: Checkpoint(kSigGen), then each side's signatures into a CSR
/// table, fanned out per set and stitched in set order. `right` stays
/// empty for the self-join. signatures_r/s are committed only when
/// generation completed untripped.
Status GenerateSignatures(const ExecContext& ctx, obs::Stage* stage,
                          SignatureTable* left, SignatureTable* right);

/// The auto-spill budget check (DESIGN.md Section 12): true when, with
/// SpillPolicy::kAuto and a memory budget, charging the signature tables
/// would exceed the budget, so the join should switch to the spilled
/// source rather than trip the guard. The footprint is
/// thread-count-independent, so the decision is deterministic.
bool ExceedsSpillBudget(const ExecContext& ctx, const SignatureTable& left,
                        const SignatureTable& right);

/// bitmap_filter's XOR bitmap tables. The self-join leaves `right` empty
/// and uses `left` for both sides.
struct BitmapTables {
  kernels::BitmapTable left;
  kernels::BitmapTable right;
};

/// The candgen kernel's filter: BitmapTable::MayMatch of a packed pair
/// under ctx's predicate. `tables` must outlive the returned function.
kernels::PairFilter BitmapFilter(const ExecContext& ctx,
                                 const BitmapTables& tables);

/// The candgen kernel's per-shard scope: a runtime "shard" trace sample
/// (lane = shard + 1) timing the shard's scatter, and its occurrences
/// recorded into the join.shard.candidates histogram. Empty when the
/// join has neither a tracer nor a metrics registry.
kernels::ShardScope ShardSamples(obs::JoinTelemetry* telem);

/// candgen: charges the tables, Checkpoint(kCandGen), groups each
/// table's postings (freeing the table), then pairs them up, dedups and
/// bitmap-filters them in one kernels::CandidateBuckets pass; commits
/// the collision and candidate counts and charges candidates x 8 bytes
/// (what the sorted candidate vector would hold). A trip zeroes the
/// partial collision and candidate counters.
Status PairCandidates(const ExecContext& ctx, obs::Stage* stage,
                      const BitmapTables& bitmaps, SignatureTable* left,
                      SignatureTable* right, kernels::Survivors* survivors);

/// spill_partition: the out-of-core source (DESIGN.md Section 12).
/// Checkpoint(kSigGen), then the retry loop around spill::RunAttempt,
/// halving the partition count after a transient I/O failure. Guard
/// trips are final; exhausted retries surrender with the
/// completed-signature counts but no candidate accounting. A degraded
/// join passes the tables siggen generated in `left`/`right` (both empty
/// otherwise): the first attempt writes them and frees them before it
/// reads a partition; a later attempt generates the signatures. The
/// stage's whole time feeds candpair_seconds.
Status PartitionCandidates(const ExecContext& ctx, obs::Stage* stage,
                           const BitmapTables& bitmaps, SignatureTable* left,
                           SignatureTable* right,
                           kernels::Survivors* survivors);

/// bitmap_filter, once: builds the tables range-parallel, before the
/// source filters with them. The driver charges them to the guard once
/// the source has succeeded.
void BuildBitmaps(const ExecContext& ctx, obs::Stage* stage,
                  BitmapTables* tables);

/// The bitmap pre-filter tallies of one span.
struct BitmapTally {
  uint64_t checked = 0;
  uint64_t pruned = 0;
};

/// bitmap_filter, per span: commits the rows of one span the source
/// already filtered, `checked` candidates of which `kept` survived, and
/// returns the span's tally. It never touches JoinStats: verify commits
/// the tally after the span's barrier.
BitmapTally TallySpan(obs::Stage* stage, uint64_t checked, uint64_t kept);

/// verify, per span: the span's guard barrier (Checkpoint(kVerify), then
/// CheckBreaker at `start`, the span's pre-filter offset, against the
/// results so far), then commits `tally`, then evaluates `survivors`
/// into `verified` (one vector per range, in candidate order) and
/// charges the pairs. Spans with fewer than kParallelVerifyMin survivors
/// are evaluated on the calling thread, in one range.
Status VerifySpan(const ExecContext& ctx, obs::Stage* stage, size_t start,
                  std::span<const uint64_t> survivors,
                  const BitmapTally& tally,
                  std::vector<std::vector<SetPair>>* verified);

/// verify, after the last span: the final barrier over all `candidates`
/// (a checkpoint first when there were none, so no span ran), so a join
/// whose explosion only crosses the ratio in its last span still trips.
Status FinishVerify(const ExecContext& ctx, obs::Stage* stage,
                    size_t candidates);

/// dedup_emit: appends the span's `verified` pairs to the result in
/// range order. Both sources yield sorted, duplicate-free survivors, so
/// appending yields the final sorted pair vector.
void EmitPairs(const ExecContext& ctx, obs::Stage* stage,
               const std::vector<std::vector<SetPair>>& verified);

}  // namespace ssjoin::pipeline
