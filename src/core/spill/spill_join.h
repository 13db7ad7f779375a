// Out-of-core execution of the Figure-2 driver (DESIGN.md Section 12).
//
// When memory pressure would trip the guard — or the spill policy forces
// it — Join() degrades instead of failing: the one driver in
// core/ssjoin.cc builds a plan whose source is SpillPartitionOperator,
// which calls RunAttempt below. Signature generation streams its
// postings into K hash-partitioned, checksummed spill files
// (core/spill/spill_file.h), and candidate generation runs one partition
// at a time, each through the *same* grouping and pair-up-and-union
// routine as the in-memory path (pipeline::GenerateCandidates); the
// verify tail is the in-memory one.
//
// The partitioning invariant that makes this exact: postings are routed
// by a hash of the signature alone, so every signature group lands
// wholly inside one partition. Per-partition collision counts therefore
// sum to exactly the serial total, and the only cross-partition overlap
// — a candidate pair reachable via two signatures in two partitions —
// is removed by the sorted set_union merge, the same dedup the in-memory
// shards already rely on. A spilled join returns byte-identical pairs
// and exactly-equal legacy stats at any thread count and any partition
// count; only the spill_* stats and wall-clock differ.
//
// Failure-first: every file operation returns a structured Status, spill
// files live in a util::ScopedTempDir that is removed on every exit path
// (success, trip, I/O failure), disk usage is charged against the
// guard's disk budget at deterministic JoinPhase::kSpill checkpoints,
// and an I/O failure retries with half the partitions (bounded by
// SpillOptions::max_retries) before surrendering with kIOError.

#pragma once

#include <cstdint>
#include <vector>

#include "core/execution_guard.h"
#include "core/signature_scheme.h"
#include "core/ssjoin.h"
#include "data/collection.h"
#include "obs/join_telemetry.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ssjoin::spill {

/// Partition count used when SpillOptions::partitions is 0.
inline constexpr uint32_t kDefaultPartitions = 8;

/// Resolves SpillPolicy::kDefault through the SSJOIN_SPILL environment
/// variable ("off" / "auto" / "force"; unset or unrecognized reads as
/// off). Explicit policies pass through untouched, so call sites that
/// pin kDisabled escape a CI-wide force.
SpillPolicy ResolvePolicy(SpillPolicy requested);

/// One spill attempt at a fixed partition count: write both sides
/// (`right` null selects the self-join) into partition files, then run
/// candidate generation partition by partition and merge. Fills `stats`
/// (phase seconds, signature/collision/candidate counters, spill byte
/// counters — always, so failed attempts still account their I/O) and
/// `*candidates` (only valid on OK). The attempt's temp directory and
/// guard charges are released on every path; the merged candidate
/// vector is the only thing that escapes. SpillPartitionOperator drives
/// the retry loop around this.
Status RunAttempt(const SetCollection& left, const SetCollection* right,
                  const SignatureScheme& scheme, const JoinOptions& options,
                  uint32_t partitions, ThreadPool& pool, ExecutionGuard* guard,
                  obs::JoinTelemetry& telem, JoinStats* stats,
                  std::vector<uint64_t>* candidates);

}  // namespace ssjoin::spill
