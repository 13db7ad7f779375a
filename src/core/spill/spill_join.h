// Out-of-core execution of the Figure-2 driver (DESIGN.md Section 12).
//
// When memory pressure would trip the guard — or the spill policy forces
// it — Join() degrades instead of failing: the one driver in
// core/ssjoin.cc runs the spill_partition source stage
// (pipeline::PartitionCandidates), which calls RunAttempt below. A
// forced spill starts there; an auto spill switches to it after siggen,
// in the same pass, and hands over the signature tables siggen already
// generated. It is the in-memory join's code run per partition: SigGen
// (pipeline::GenerateAll, or the handed-over tables) streams each
// chunk's postings into K hash-partitioned, checksummed spill files
// (core/spill/spill_file.h); each partition is grouped and paired up by
// candgen's kernel (kernels::CandidateBuckets::Add) into the one global
// first-id bucket layout and deduplicated in place; one final bucket
// pass (CandidateBuckets::Filter) merges the partitions' runs, counts
// the distinct candidates and bitmap-filters them; the verify tail is
// the in-memory one.
//
// The partitioning invariant that makes this exact: postings are routed
// by a hash of the signature alone, so every signature group lands
// wholly inside one partition. Per-partition collision counts therefore
// sum to exactly the serial total, and the only cross-partition overlap
// — a candidate pair reachable via two signatures in two partitions —
// lands in the same first-id bucket of both partitions' runs and is
// removed by the final bucket pass, the same dedup the in-memory shards
// rely on. A spilled join returns byte-identical pairs and exactly-equal
// legacy stats at any thread count and any partition count; only the
// spill_* stats and wall-clock differ.
//
// Failure-first: every file operation returns a structured Status, spill
// files live in a util::ScopedTempDir that is removed on every exit path
// (success, trip, I/O failure), disk usage is charged against the
// guard's disk budget at deterministic JoinPhase::kSpill checkpoints,
// and an I/O failure retries with half the partitions (bounded by
// spill::kMaxRetries) before surrendering with kIOError.

#pragma once

#include <cstdint>

#include "core/ssjoin.h"
#include "util/status.h"

namespace ssjoin::kernels {
struct Survivors;
}  // namespace ssjoin::kernels

namespace ssjoin::pipeline {
struct BitmapTables;
struct ExecContext;
struct SignatureTable;
}  // namespace ssjoin::pipeline

namespace ssjoin::spill {

/// Partition count used when SpillOptions::partitions is 0.
inline constexpr uint32_t kDefaultPartitions = 8;

/// I/O-failure retries: each retry halves the partition count (fewer,
/// larger files — the failure mode is usually per-file overhead or
/// file-count limits) before the join surrenders with kIOError.
inline constexpr uint32_t kMaxRetries = 2;

/// Resolves SpillPolicy::kDefault through the SSJOIN_SPILL environment
/// variable ("off" / "auto" / "force"; unset or unrecognized reads as
/// off). Explicit policies pass through untouched, so call sites that
/// pin kDisabled escape a CI-wide force.
SpillPolicy ResolvePolicy(SpillPolicy requested);

/// One spill attempt of the join `ctx` describes at a fixed partition
/// count: write both sides (`ctx.right` null selects the self-join) into
/// partition files — from `left`/`right` when they hold tables (a
/// degraded join's), which are freed before the first partition is
/// read, otherwise generated chunk by chunk — then pair up the
/// partitions one by one and filter the merged runs with `bitmaps`.
/// Fills `stats` (signature/collision/candidate counters, spill byte
/// counters — always, so failed attempts still account their I/O) and
/// `*survivors` (only valid on OK). The attempt's temp directory and
/// guard charges are released on every path; the survivors are the only
/// thing that escapes. pipeline::PartitionCandidates drives the retry
/// loop around this.
Status RunAttempt(const pipeline::ExecContext& ctx, uint32_t partitions,
                  const pipeline::BitmapTables& bitmaps,
                  pipeline::SignatureTable* left,
                  pipeline::SignatureTable* right, JoinStats* stats,
                  kernels::Survivors* survivors);

}  // namespace ssjoin::spill
