// Internal building blocks of the Figure-2 drivers, shared between the
// in-memory execution paths (core/ssjoin.cc) and the out-of-core spill
// driver (core/spill/spill_join.cc).
//
// Everything here used to live in ssjoin.cc's anonymous namespace; the
// spill layer reuses it verbatim so a spilled join is the same candidate
// generation and the same verification code operating on partition-sized
// slices — which is what makes the byte-identity contract (DESIGN.md
// Section 12) a structural property instead of a test hope.
//
// This header is internal: nothing in it is API, and its contracts (in
// particular the determinism notes on each function) are those of
// DESIGN.md Sections 6-7.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/execution_guard.h"
#include "core/kernels/bitmap_filter.h"
#include "core/kernels/intersect.h"
#include "core/kernels/posting_groups.h"
#include "core/predicate.h"
#include "core/signature_scheme.h"
#include "core/ssjoin.h"
#include "core/types.h"
#include "data/collection.h"
#include "obs/join_telemetry.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ssjoin::detail {

// Wraps guard->ShouldStop(phase) for the interruptible ParallelFor
// overload. Empty when no guard is attached, which selects the plain
// (single-invocation-per-chunk) ParallelFor — unguarded runs execute the
// exact pre-guard code path.
std::function<bool()> StopFn(ExecutionGuard* guard, JoinPhase phase);

// Publishes the end-of-join accounting — root-span attributes plus the
// join.* metrics — and, when the guard tripped, the trip cause as a span
// event on the root. Called on every exit path. `isect_start` is the
// process-wide intersect-kernel dispatch snapshot taken at driver entry.
void FinishJoin(obs::JoinTelemetry& telem, const JoinResult& result,
                ExecutionGuard* guard, obs::ExplainReport* explain,
                const kernels::IntersectCounts& isect_start);

// Replaces *scratch with the deduplicated, sorted Sign(set).
void GenerateSorted(const SignatureScheme& scheme,
                    std::span<const ElementId> set,
                    std::vector<Signature>* scratch);

// Unions sorted duplicate-free candidate lists: log2(n) pairwise
// set_union rounds, the merges of each round running in parallel.
std::vector<uint64_t> UnionShards(std::vector<std::vector<uint64_t>> lists,
                                  ThreadPool& pool,
                                  const std::function<bool()>& stop);

// Shared candidate-generation phase: run `shard_fn` per pool shard, then
// union the shard outputs. Adds into stats->signature_collisions, sets
// stats->candidates, and returns the global sorted duplicate-free
// candidate vector.
std::vector<uint64_t> GenerateCandidates(
    ThreadPool& pool,
    const std::function<kernels::ShardCandidates(size_t)>& shard_fn,
    const std::function<bool()>& stop, JoinStats* stats,
    obs::JoinTelemetry* telem);

// Builds the XOR bitmap signature table for `input` with the rows
// sharded across the pool (byte-identical for every thread count).
kernels::BitmapTable BuildBitmap(const SetCollection& input, uint32_t bits,
                                 ThreadPool& pool);

// The bitmap pre-filter step shared by all verify loops: returns true
// when the pair was pruned (provably non-matching). Pruned pairs count
// as false positives, so results/false_positives stay byte-identical
// with the filter on or off.
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

}  // namespace ssjoin::detail
