#include "core/spill/spill_join.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "core/execution_guard.h"
#include "core/kernels/posting_groups.h"
#include "core/pipeline/candidate_gen_operator.h"
#include "core/spill/spill_file.h"
#include "obs/join_telemetry.h"
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
            GenerateSorted(scheme, input.set(static_cast<SetId>(c0 + i)),
                           &sigs[i]);
          }
        },
        StopFn(guard, JoinPhase::kSigGen));
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
    auto scope = telem.Phase(kPhaseSigGen, &stats->siggen_seconds);
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

  auto scope = telem.Phase(kPhaseCandPair, &stats->candpair_seconds);
  std::function<bool()> stop = StopFn(guard, JoinPhase::kCandGen);
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
    std::vector<uint64_t> part_candidates = pipeline::GenerateCandidates(
        shards_l, right != nullptr ? &shards_r : nullptr, pool, stop, stats,
        &telem);
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

SpillPolicy ResolvePolicy(SpillPolicy requested) {
  if (requested != SpillPolicy::kDefault) return requested;
  const char* env = std::getenv("SSJOIN_SPILL");
  if (env == nullptr) return SpillPolicy::kDisabled;
  std::string_view value(env);
  if (value == "auto") return SpillPolicy::kAuto;
  if (value == "force") return SpillPolicy::kForced;
  return SpillPolicy::kDisabled;
}

}  // namespace ssjoin::spill
