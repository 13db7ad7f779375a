#include "core/spill/spill_join.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/execution_guard.h"
#include "core/kernels/posting_groups.h"
#include "core/pipeline/stages.h"
#include "core/spill/spill_file.h"
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
// partition writers. Each chunk's signatures come from `table` when it
// holds one (a degraded join's siggen output), otherwise from the
// in-memory SigGen routine (pipeline::GenerateAll, pool-parallel); the
// append pass is sequential in set order, so the file bytes are
// identical for every thread count and either source. `*signatures` is
// only meaningful when the function returns OK (a stopped chunk leaves
// it partial; the caller commits it to stats only on success).
Status WriteSide(const pipeline::ExecContext& ctx, const SetCollection& input,
                 const pipeline::SignatureTable& table, ChargeLedger* ledger,
                 uint32_t partitions, const util::ScopedTempDir& tmp,
                 const char* prefix, std::vector<SpillFileWriter>* writers,
                 uint64_t* signatures) {
  ExecutionGuard* guard = ctx.guard;
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
  for (size_t c0 = 0; c0 < input.size(); c0 += kWriteChunkSets) {
    if (guard != nullptr) {
      SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSpill));
    }
    size_t c1 = std::min(static_cast<size_t>(input.size()),
                         c0 + kWriteChunkSets);
    pipeline::SignatureTable generated;
    std::span<const Signature> values;
    // Chunk set i owns values[offsets[i], offsets[i + 1]).
    std::span<const size_t> offsets;
    if (table.offsets.empty()) {
      generated =
          pipeline::GenerateAll(input, c0, c1, *ctx.scheme, *ctx.pool, guard);
      if (guard != nullptr && guard->tripped()) return guard->trip_status();
      values = generated.values;
      offsets = generated.offsets;
    } else {
      values = table.values;
      offsets = std::span<const size_t>(table.offsets).subspan(c0, c1 - c0 + 1);
    }
    *signatures += offsets.back() - offsets.front();
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      for (size_t k = offsets[i]; k < offsets[i + 1]; ++k) {
        Signature sig = values[k];
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

Status RunAttempt(const pipeline::ExecContext& ctx, uint32_t partitions,
                  const pipeline::BitmapTables& bitmaps,
                  pipeline::SignatureTable* left,
                  pipeline::SignatureTable* right, JoinStats* stats,
                  kernels::Survivors* survivors) {
  const SetCollection* right_input = ctx.right;
  ThreadPool& pool = *ctx.pool;
  ExecutionGuard* guard = ctx.guard;
  util::ScopedTempDir tmp;
  SSJOIN_ASSIGN_OR_RETURN(tmp,
                          util::ScopedTempDir::Create(ctx.options->spill.dir));
  ChargeLedger ledger(guard);

  std::vector<SpillFileWriter> writers_l;
  std::vector<SpillFileWriter> writers_r;
  uint64_t signatures_l = 0;
  uint64_t signatures_r = 0;
  Status write_status = WriteSide(ctx, *ctx.left, *left, &ledger, partitions,
                                  tmp, "part-r-", &writers_l, &signatures_l);
  if (write_status.ok() && right_input != nullptr) {
    write_status = WriteSide(ctx, *right_input, *right, &ledger, partitions,
                             tmp, "part-s-", &writers_r, &signatures_r);
  }
  // Bytes any writer durably handed off count into the attempt's I/O
  // accounting even when the stage failed mid-file.
  stats->spill_bytes_written += WriterBytes(writers_l) + WriterBytes(writers_r);
  SSJOIN_RETURN_NOT_OK(write_status);
  stats->signatures_r = signatures_l;
  stats->signatures_s = right_input != nullptr ? signatures_r : signatures_l;
  if (guard != nullptr) {
    // Deterministic post-write barrier: the disk-budget check sees the
    // attempt's full footprint here, and injected kCandGen trips land
    // with completed signature counts — mirroring the in-memory
    // driver's SigGen → CandGen checkpoint.
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSpill));
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
  }
  // The files hold the signatures now; a retry regenerates them.
  *left = pipeline::SignatureTable();
  *right = pipeline::SignatureTable();

  std::function<bool()> stop = StopFn(guard, JoinPhase::kCandGen);
  const kernels::ShardScope scope = pipeline::ShardSamples(ctx.telem);
  kernels::CandidateBuckets candidates(pipeline::MaxFirstId(ctx), partitions);
  for (uint32_t p = 0; p < partitions; ++p) {
    std::vector<Posting> postings_l;
    std::vector<Posting> postings_r;
    SSJOIN_ASSIGN_OR_RETURN(
        postings_l, SpillFileReader::ReadAll(writers_l[p].path(),
                                             &stats->spill_bytes_read));
    if (right_input != nullptr) {
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
    if (right_input != nullptr) shards_r = group(&postings_r);
    // The partition's pairs join the global first-id layout, deduplicated
    // within the partition; a pair reachable via signatures in two
    // partitions dedups in the final bucket pass below.
    candidates.Add(&shards_l, right_input != nullptr ? &shards_r : nullptr,
                   pool, stop, scope);
    if (guard != nullptr && guard->tripped()) return guard->trip_status();
    ledger.ReleaseMemory(partition_bytes);
  }
  stats->signature_collisions = candidates.collisions();
  *survivors =
      candidates.Filter(pipeline::BitmapFilter(ctx, bitmaps), pool, stop);
  if (guard != nullptr && guard->tripped()) return guard->trip_status();
  stats->candidates = survivors->candidates;
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
