// The join's stages as plain functions (DESIGN.md Section 13).
//
// Join() runs one fixed stage sequence, driven straight-line by RunJoin
// in core/ssjoin.cc:
//
//   in memory  siggen -> candgen -> bitmap_filter -> verify -> dedup_emit
//   spilled    spill_partition -> bitmap_filter -> verify -> dedup_emit
//
// An auto spill switches source after siggen, in the same pass and chain
// (siggen -> candgen -> spill_partition -> ...). The spill layer reuses
// GenerateAll, GenerateCandidates and UnionSorted below.
//
// The source (candgen or spill_partition) materializes the whole sorted,
// duplicate-free candidate vector. The driver builds the bitmap tables,
// then walks the vector in kVerifySpan-candidate spans: each span is
// filtered in place, verified behind its guard barrier, and its pairs
// are appended to the result.
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

/// candgen: charges the tables, Checkpoint(kCandGen), groups each
/// table's postings (freeing the table), pairs them up and unions the
/// shards into the sorted candidate vector, then charges it. A trip
/// zeroes the partial collision and candidate counters.
Status PairCandidates(const ExecContext& ctx, obs::Stage* stage,
                      SignatureTable* left, SignatureTable* right,
                      std::vector<uint64_t>* candidates);

/// The one candidate union, of candgen's shards and of the spill layer's
/// partitions: merges the (one or more) sorted duplicate-free `lists` in
/// pairwise set_union rounds on the pool, an odd list carried over. A
/// stop abandons the merges; the caller discards the partial result.
std::vector<uint64_t> UnionSorted(std::vector<std::vector<uint64_t>> lists,
                                  ThreadPool& pool,
                                  const std::function<bool()>& stop);

/// The pair-up-and-union step of candgen, shared with the spill layer's
/// per-partition loop (core/spill/spill_join.cc): pairs up every pool
/// shard (self-join over `shards_l` when `shards_r` is null, otherwise
/// the binary merge of the two sides), then merges the sorted shard
/// outputs with UnionSorted. Adds into stats->signature_collisions,
/// sets stats->candidates, and returns the global sorted duplicate-free
/// candidate vector.
std::vector<uint64_t> GenerateCandidates(
    const std::vector<kernels::PostingShard>& shards_l,
    const std::vector<kernels::PostingShard>* shards_r, ThreadPool& pool,
    const std::function<bool()>& stop, JoinStats* stats,
    obs::JoinTelemetry* telem);

/// spill_partition: the out-of-core source (DESIGN.md Section 12).
/// Checkpoint(kSigGen), then the retry loop around spill::RunAttempt,
/// halving the partition count after a transient I/O failure. Guard
/// trips are final; exhausted retries surrender with the
/// completed-signature counts but no candidate accounting. Signature
/// generation happens inside the attempts, so the stage's whole time
/// feeds candpair_seconds.
Status PartitionCandidates(const ExecContext& ctx, obs::Stage* stage,
                           std::vector<uint64_t>* candidates);

/// bitmap_filter's XOR bitmap tables. The self-join leaves `right` empty
/// and uses `left` for both sides.
struct BitmapTables {
  kernels::BitmapTable left;
  kernels::BitmapTable right;
};

/// The bitmap pre-filter tallies of one span.
struct BitmapTally {
  uint64_t checked = 0;
  uint64_t pruned = 0;
};

/// bitmap_filter, once: builds the tables range-parallel and charges
/// them to the guard.
void BuildBitmaps(const ExecContext& ctx, obs::Stage* stage,
                  BitmapTables* tables);

/// bitmap_filter, per span: compacts `span` in place to the candidates
/// the bitmaps cannot rule out, preserving candidate order, and returns
/// how many survived. Fills `tally` but never touches JoinStats: verify
/// commits it after the span's barrier.
size_t FilterSpan(const ExecContext& ctx, obs::Stage* stage,
                  const BitmapTables& tables, std::span<uint64_t> span,
                  BitmapTally* tally);

/// verify, per span: the span's guard barrier (Checkpoint(kVerify), then
/// CheckBreaker at `start`, the span's pre-filter offset, against the
/// results so far), then commits `tally`, then evaluates `survivors`
/// range-parallel into `verified` (one vector per range, in candidate
/// order) and charges the pairs.
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
/// range order. Both sources emit sorted, duplicate-free candidates, so
/// appending yields the final sorted pair vector.
void EmitPairs(const ExecContext& ctx, obs::Stage* stage,
               const std::vector<std::vector<SetPair>>& verified);

}  // namespace ssjoin::pipeline
