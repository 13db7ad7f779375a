#include "core/spill/spill_join.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "core/driver_internal.h"
#include "core/execution_guard.h"
#include "core/kernels/intersect.h"
#include "core/kernels/posting_groups.h"
#include "core/pipeline/operator.h"
#include "core/pipeline/plan_builder.h"
#include "core/spill/spill_file.h"
#include "core/spill/spill_internal.h"
#include "obs/explain.h"
#include "obs/join_telemetry.h"
#include "obs/log.h"
#include "util/hashing.h"
#include "util/status.h"
#include "util/temp_dir.h"
#include "util/thread_pool.h"

namespace ssjoin::spill {
namespace {

using kernels::Posting;

// Partition routing. XORing a fixed seed decorrelates the partition hash
// from the grouping's Mix64(sig) (kernels/posting_groups), so the
// in-partition shard split stays balanced; routing by the signature
// alone is what keeps every signature group inside one partition (the
// exactness invariant).
constexpr uint64_t kPartitionSeed = 0xc3a5c85c97cb3127ull;

// Sets streamed per write-stage chunk. Chunks are the deterministic unit
// of the write stage: guard checkpoints and disk charges happen only at
// chunk boundaries, independent of the thread count.
constexpr size_t kWriteChunkSets = 8192;

size_t PartitionOf(Signature sig, uint32_t partitions) {
  return partitions == 1
             ? 0
             : static_cast<size_t>(Mix64(sig ^ kPartitionSeed) % partitions);
}

// Tracks what one spill attempt has charged against the guard and
// releases the outstanding balance when the attempt ends — success,
// trip, I/O failure, or exception all return the guard to its entry
// accounting (minus what the caller explicitly keeps charging itself).
class ChargeLedger {
 public:
  explicit ChargeLedger(ExecutionGuard* guard) : guard_(guard) {}
  ~ChargeLedger() {
    if (guard_ == nullptr) return;
    if (memory_ > 0) guard_->ReleaseMemory(memory_);
    if (disk_ > 0) guard_->ReleaseDisk(disk_);
  }
  ChargeLedger(const ChargeLedger&) = delete;
  ChargeLedger& operator=(const ChargeLedger&) = delete;

  void ChargeMemory(size_t bytes) {
    if (guard_ == nullptr) return;
    guard_->ChargeMemory(bytes);
    memory_ += bytes;
  }
  void ReleaseMemory(size_t bytes) {
    if (guard_ == nullptr) return;
    guard_->ReleaseMemory(bytes);
    memory_ -= bytes;
  }
  void ChargeDisk(size_t bytes) {
    if (guard_ == nullptr) return;
    guard_->ChargeDisk(bytes);
    disk_ += bytes;
  }

 private:
  ExecutionGuard* guard_;
  size_t memory_ = 0;
  size_t disk_ = 0;
};

uint64_t WriterBytes(const std::vector<SpillFileWriter>& writers) {
  uint64_t total = 0;
  for (const SpillFileWriter& w : writers) total += w.bytes_written();
  return total;
}

// Write stage for one input side: streams Sign(set) postings into the
// partition writers. Signature generation is pool-parallel per chunk;
// the append pass is sequential in set order, so the file bytes are
// identical for every thread count. `*signatures` is only meaningful
// when the function returns OK (a stopped chunk leaves it partial; the
// caller commits it to stats only on success).
Status WriteSide(const SetCollection& input, const SignatureScheme& scheme,
                 ThreadPool& pool, ExecutionGuard* guard,
                 ChargeLedger* ledger, uint32_t partitions,
                 const util::ScopedTempDir& tmp, const char* prefix,
                 std::vector<SpillFileWriter>* writers,
                 uint64_t* signatures) {
  writers->resize(partitions);
  for (uint32_t p = 0; p < partitions; ++p) {
    SSJOIN_RETURN_NOT_OK((*writers)[p].Open(
        tmp.FilePath(std::string(prefix) + std::to_string(p) + ".spill")));
  }
  uint64_t charged = 0;
  auto charge_delta = [&] {
    uint64_t total = WriterBytes(*writers);
    ledger->ChargeDisk(static_cast<size_t>(total - charged));
    charged = total;
  };
  charge_delta();  // the per-file headers
  std::vector<std::vector<Signature>> sigs;
  for (size_t c0 = 0; c0 < input.size(); c0 += kWriteChunkSets) {
    if (guard != nullptr) {
      SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSpill));
    }
    size_t c1 = std::min(static_cast<size_t>(input.size()),
                         c0 + kWriteChunkSets);
    sigs.assign(c1 - c0, {});
    ParallelFor(
        pool, c1 - c0,
        [&](size_t begin, size_t end, size_t) {
          for (size_t i = begin; i < end; ++i) {
            detail::GenerateSorted(
                scheme, input.set(static_cast<SetId>(c0 + i)), &sigs[i]);
          }
        },
        detail::StopFn(guard, JoinPhase::kSigGen));
    if (guard != nullptr && guard->tripped()) return guard->trip_status();
    for (size_t i = 0; i < sigs.size(); ++i) {
      *signatures += sigs[i].size();
      for (Signature sig : sigs[i]) {
        SSJOIN_RETURN_NOT_OK((*writers)[PartitionOf(sig, partitions)].Append(
            sig, static_cast<SetId>(c0 + i)));
      }
    }
    charge_delta();
  }
  for (SpillFileWriter& w : *writers) {
    SSJOIN_RETURN_NOT_OK(w.Finish());
  }
  charge_delta();  // the tail blocks Finish() flushed
  return Status::OK();
}

}  // namespace

namespace internal {

// One spill attempt at a fixed partition count: write both sides, then
// run candidate generation partition by partition and merge. Fills
// `stats` (phase seconds, signature/collision/candidate counters, spill
// byte counters — always, so failed attempts still account their I/O)
// and `*candidates` (only valid on OK). The attempt's temp directory and
// guard charges are released on every path; the merged candidate vector
// is the only thing that escapes.
Status RunAttempt(const SetCollection& left, const SetCollection* right,
                  const SignatureScheme& scheme, const JoinOptions& options,
                  uint32_t partitions, ThreadPool& pool,
                  ExecutionGuard* guard, obs::JoinTelemetry& telem,
                  JoinStats* stats, std::vector<uint64_t>* candidates) {
  util::ScopedTempDir tmp;
  SSJOIN_ASSIGN_OR_RETURN(tmp, util::ScopedTempDir::Create(options.spill.dir));
  ChargeLedger ledger(guard);

  std::vector<SpillFileWriter> writers_l;
  std::vector<SpillFileWriter> writers_r;
  Status write_status;
  uint64_t signatures_l = 0;
  uint64_t signatures_r = 0;
  {
    auto scope = telem.Phase(obs::kPhaseSigGen, &stats->siggen_seconds);
    write_status = WriteSide(left, scheme, pool, guard, &ledger, partitions,
                             tmp, "part-r-", &writers_l, &signatures_l);
    if (write_status.ok() && right != nullptr) {
      write_status = WriteSide(*right, scheme, pool, guard, &ledger,
                               partitions, tmp, "part-s-", &writers_r,
                               &signatures_r);
    }
  }
  // Bytes any writer durably handed off count into the attempt's I/O
  // accounting even when the stage failed mid-file.
  stats->spill_bytes_written += WriterBytes(writers_l) + WriterBytes(writers_r);
  SSJOIN_RETURN_NOT_OK(write_status);
  stats->signatures_r = signatures_l;
  stats->signatures_s = right != nullptr ? signatures_r : signatures_l;
  telem.PhaseAttr("signatures",
                  stats->signatures_r +
                      (right != nullptr ? stats->signatures_s : 0));
  if (guard != nullptr) {
    // Deterministic post-write barrier: the disk-budget check sees the
    // attempt's full footprint here, and injected kCandGen trips land
    // with completed signature counts — mirroring the in-memory
    // driver's SigGen → CandGen checkpoint.
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSpill));
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
  }

  auto scope = telem.Phase(obs::kPhaseCandPair, &stats->candpair_seconds);
  std::function<bool()> stop = detail::StopFn(guard, JoinPhase::kCandGen);
  std::vector<uint64_t> merged;
  for (uint32_t p = 0; p < partitions; ++p) {
    std::vector<Posting> postings_l;
    std::vector<Posting> postings_r;
    SSJOIN_ASSIGN_OR_RETURN(
        postings_l, SpillFileReader::ReadAll(writers_l[p].path(),
                                             &stats->spill_bytes_read));
    if (right != nullptr) {
      SSJOIN_ASSIGN_OR_RETURN(
          postings_r, SpillFileReader::ReadAll(writers_r[p].path(),
                                               &stats->spill_bytes_read));
    }
    const size_t partition_bytes =
        (postings_l.size() + postings_r.size()) * sizeof(Posting);
    ledger.ChargeMemory(partition_bytes);
    if (guard != nullptr) {
      // The deterministic memory-pressure point of the spilled path: one
      // partition's postings are the peak the budget is checked against.
      SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
    }
    // The in-memory grouping, over the partition's file order; each side
    // is freed once grouped.
    const size_t buckets = kernels::PostingBuckets(
        std::max(postings_l.size(), postings_r.size()), pool.size());
    auto group = [&](std::vector<Posting>* postings) {
      std::vector<kernels::PostingShard> shards =
          kernels::GroupPostings(*postings, buckets, pool, stop);
      *postings = std::vector<Posting>();
      return shards;
    };
    std::vector<kernels::PostingShard> shards_l = group(&postings_l);
    std::vector<kernels::PostingShard> shards_r;
    if (right != nullptr) shards_r = group(&postings_r);
    std::vector<uint64_t> part_candidates = detail::GenerateCandidates(
        pool,
        [&](size_t shard) {
          if (right == nullptr) {
            return kernels::SelfJoinShard(shards_l[shard], stop);
          }
          return kernels::BinaryJoinShard(shards_l[shard], shards_r[shard],
                                          stop);
        },
        stop, stats, &telem);
    if (guard != nullptr && guard->tripped()) return guard->trip_status();
    if (merged.empty()) {
      merged = std::move(part_candidates);
    } else if (!part_candidates.empty()) {
      // Sorted union with the candidates so far: a pair reachable via
      // signatures in two partitions dedups here, exactly as the
      // in-memory shard union dedups it.
      std::vector<uint64_t> unioned;
      unioned.reserve(merged.size() + part_candidates.size());
      std::set_union(merged.begin(), merged.end(), part_candidates.begin(),
                     part_candidates.end(), std::back_inserter(unioned));
      merged = std::move(unioned);
    }
    ledger.ReleaseMemory(partition_bytes);
  }
  stats->candidates = merged.size();
  *candidates = std::move(merged);
  return Status::OK();
}

}  // namespace internal

namespace {

// The shared driver behind both public entry points: the spilled
// operator chain (SpillPartition owns the retry loop around
// internal::RunAttempt, the verify tail is the standard one).
JoinResult SpilledJoin(const SetCollection& left, const SetCollection* right,
                       const SignatureScheme& scheme,
                       const Predicate& predicate, const JoinOptions& options,
                       ExecutionMode mode, bool forced) {
  JoinResult result;
  obs::JoinTelemetry telem(options.tracer, options.metrics, "join");
  telem.Attr("mode", ExecutionModeName(mode));
  if (right != nullptr) {
    telem.Attr("input_sets_r", static_cast<uint64_t>(left.size()));
    telem.Attr("input_sets_s", static_cast<uint64_t>(right->size()));
  } else {
    telem.Attr("input_sets", static_cast<uint64_t>(left.size()));
  }
  telem.Attr("spill", forced ? "forced" : "auto");
  obs::LogEvent(options.log, obs::LogLevel::kDebug, "join_start",
                {{"mode", ExecutionModeName(mode)},
                 {"spill", forced ? "forced" : "auto"},
                 {"input_sets",
                  static_cast<uint64_t>(
                      left.size() + (right != nullptr ? right->size() : 0))}});
  ThreadPool pool(ResolveThreadCount(options.num_threads));
  pool.BindMetrics(options.metrics);
  ExecutionGuard* guard = options.guard;
  if (guard != nullptr) guard->BindMetrics(options.metrics);
  kernels::IntersectCounts isect0 = kernels::IntersectDispatchCounts();

  uint32_t partitions = options.spill.partitions != 0
                            ? options.spill.partitions
                            : kDefaultPartitions;
  if (obs::ExplainReport* ex = options.explain) {
    ex->SetParam("spill", forced ? "forced" : "auto");
    ex->SetParam("spill_partitions", std::to_string(partitions));
  }

  pipeline::ExecContext ctx;
  ctx.left = &left;
  ctx.right = right;
  ctx.scheme = &scheme;
  ctx.predicate = &predicate;
  ctx.mode = mode;
  ctx.options = &options;
  ctx.pool = &pool;
  ctx.guard = guard;
  ctx.telem = &telem;
  ctx.result = &result;
  pipeline::Plan plan(&ctx);
  pipeline::BuildSpillPlan(&plan, &ctx);
  Status st = plan.Run();
  if (!st.ok()) {
    result.pairs.clear();
    result.status = std::move(st);
    detail::FinishJoin(telem, result, guard, options.explain, isect0);
    obs::LogEvent(options.log, obs::LogLevel::kWarn, "join_abort",
                  {{"error", result.status.ToString()}});
    return result;
  }

  detail::FinishJoin(telem, result, guard, options.explain, isect0);
  obs::LogEvent(options.log, obs::LogLevel::kInfo, "join_finish",
                {{"results", result.stats.results},
                 {"candidates", result.stats.candidates},
                 {"spill_partitions", result.stats.spill_partitions},
                 {"spill_retries", result.stats.spill_retries}});
  return result;
}

}  // namespace

SpillPolicy ResolvePolicy(SpillPolicy requested) {
  if (requested != SpillPolicy::kDefault) return requested;
  const char* env = std::getenv("SSJOIN_SPILL");
  if (env == nullptr) return SpillPolicy::kDisabled;
  std::string_view value(env);
  if (value == "auto") return SpillPolicy::kAuto;
  if (value == "force") return SpillPolicy::kForced;
  return SpillPolicy::kDisabled;
}

JoinResult SpilledSelfJoin(const SetCollection& input,
                           const SignatureScheme& scheme,
                           const Predicate& predicate,
                           const JoinOptions& options, ExecutionMode mode,
                           bool forced) {
  return SpilledJoin(input, nullptr, scheme, predicate, options, mode,
                     forced);
}

JoinResult SpilledBinaryJoin(const SetCollection& r, const SetCollection& s,
                             const SignatureScheme& scheme,
                             const Predicate& predicate,
                             const JoinOptions& options, bool forced) {
  return SpilledJoin(r, &s, scheme, predicate, options,
                     ExecutionMode::kBinaryJoin, forced);
}

}  // namespace ssjoin::spill
