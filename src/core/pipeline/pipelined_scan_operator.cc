#include "core/pipeline/pipelined_scan_operator.h"

#include <algorithm>

#include "core/execution_guard.h"
#include "core/signature_scheme.h"
#include "obs/join_telemetry.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace ssjoin::pipeline {
namespace {

// The serial driver's barrier granularity: the deterministic unit of the
// single-threaded pipelined scan.
constexpr size_t kSerialGroupSets = 1024;

}  // namespace

Status PipelinedScanOperator::Open() {
  serial_ = ctx_->pool->size() == 1;
  const JoinOptions& options = *ctx_->options;
  ExecutionGuard* guard = ctx_->guard;
  auto_spill_ = options.spill.policy == SpillPolicy::kAuto &&
                guard != nullptr && guard->budget().memory_budget_bytes > 0;
  if (!serial_ && options.metrics != nullptr) {
    block_micros_ = &options.metrics->histogram("join.pipeline.block_micros");
  }
  return Status::OK();
}

// Guard barrier for the pipelined scan: phases interleave per set, so
// every barrier charges the inverted-index growth and runs all three
// phase checkpoints plus the breaker. Stats at a barrier cover whole
// units only (downstream verify commits before the next pull), so a
// deterministic trip reports deterministic partials. The breaker
// compares candidates to *verified* pairs, so it only runs when
// verification does.
Status PipelinedScanOperator::Barrier() {
  ExecutionGuard* guard = ctx_->guard;
  JoinStats& stats = ctx_->result->stats;
  guard->ChargeMemory((stats.signatures_r - charged_sigs_) *
                      sizeof(kernels::Posting));
  charged_sigs_ = stats.signatures_r;
  if (auto_spill_ &&
      guard->memory_charged() > guard->budget().memory_budget_bytes) {
    // Degrade, don't trip: the checkpoint is skipped so the guard never
    // latches, and the index charge is handed back by the driver before
    // it delegates to the out-of-core rerun.
    ctx_->degrade = true;
    ctx_->degrade_release_bytes += charged_sigs_ * sizeof(kernels::Posting);
    return Status::OK();
  }
  SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSigGen));
  SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
  SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kVerify));
  if (!ctx_->options->verify) return Status::OK();
  return guard->CheckBreaker(JoinPhase::kVerify, stats.candidates,
                             stats.results);
}

Status PipelinedScanOperator::NextBatch(Batch* out) {
  if (done_) return Status::OK();
  if (ctx_->guard != nullptr) {
    // Runs before every unit and once more past the end of the input —
    // the legacy pre-group barriers plus the final one.
    SSJOIN_RETURN_NOT_OK(Barrier());
    if (ctx_->degrade) {
      done_ = true;
      return Status::OK();
    }
  }
  if (next_ >= ctx_->left->size()) {
    done_ = true;
    return Status::OK();
  }
  if (serial_) {
    SerialGroup(out);
  } else {
    ParallelBlock(out);
  }
  out->kind = Batch::Kind::kCandidates;
  out->candidates.pre_filter_count = out->candidates.packed.size();
  rows_out_ = ctx_->result->stats.candidates;
  return Status::OK();
}

void PipelinedScanOperator::SerialGroup(Batch* out) {
  const SetCollection& input = *ctx_->left;
  const SignatureScheme& scheme = *ctx_->scheme;
  JoinStats& stats = ctx_->result->stats;
  CandidateChunk& chunk = out->candidates;
  chunk.start_offset = static_cast<size_t>(stats.candidates);
  const SetId end = static_cast<SetId>(
      std::min<size_t>(input.size(), next_ + kSerialGroupSets));
  for (SetId id = next_; id < end; ++id) {
    GenerateSorted(scheme, input.set(id), &sigs_);
    stats.signatures_r += sigs_.size();
    probe_candidates_.clear();
    for (Signature sig : sigs_) {
      auto it = index_.find(sig);
      if (it == index_.end()) continue;
      stats.signature_collisions += it->second.size();
      probe_candidates_.insert(probe_candidates_.end(), it->second.begin(),
                               it->second.end());
    }
    std::sort(probe_candidates_.begin(), probe_candidates_.end());
    probe_candidates_.erase(
        std::unique(probe_candidates_.begin(), probe_candidates_.end()),
        probe_candidates_.end());
    stats.candidates += probe_candidates_.size();
    if (ctx_->options->verify) {
      for (SetId partner : probe_candidates_) {
        chunk.packed.push_back(PackPair(partner, id));
      }
    }
    // Index append: verification never reads the index and probes only
    // see smaller ids, so appending here (before the downstream verify
    // of this unit) changes nothing a probe can observe.
    for (Signature sig : sigs_) index_[sig].push_back(id);
  }
  rows_in_ += end - next_;
  next_ = end;
}

void PipelinedScanOperator::ParallelBlock(Batch* out) {
  const SetCollection& input = *ctx_->left;
  const SignatureScheme& scheme = *ctx_->scheme;
  JoinStats& stats = ctx_->result->stats;
  obs::JoinTelemetry& telem = *ctx_->telem;
  ThreadPool& pool = *ctx_->pool;
  CandidateChunk& chunk = out->candidates;
  chunk.start_offset = static_cast<size_t>(stats.candidates);
  const size_t chunks = pool.size();
  const size_t block = 256 * chunks;
  const size_t b0 = next_;
  const size_t b1 = std::min(static_cast<size_t>(input.size()), b0 + block);
  const size_t n = b1 - b0;
  auto block_sample = telem.Sample("block", block_micros_);
  block_sigs_.assign(n, {});
  {
    std::vector<uint64_t> counts(chunks, 0);
    ParallelFor(pool, n, [&](size_t begin, size_t end, size_t c) {
      uint64_t count = 0;
      for (size_t i = begin; i < end; ++i) {
        GenerateSorted(scheme, input.set(static_cast<SetId>(b0 + i)),
                       &block_sigs_[i]);
        count += block_sigs_[i].size();
      }
      counts[c] = count;
    });
    for (uint64_t count : counts) stats.signatures_r += count;
  }
  block_partners_.assign(n, {});
  {
    block_postings_.clear();
    for (size_t i = 0; i < n; ++i) {
      for (Signature sig : block_sigs_[i]) {
        block_postings_.emplace_back(sig, static_cast<SetId>(b0 + i));
      }
    }
    std::sort(block_postings_.begin(), block_postings_.end());
    std::vector<uint64_t> collisions(chunks, 0);
    std::vector<uint64_t> candidates(chunks, 0);
    ParallelFor(pool, n, [&](size_t begin, size_t end, size_t c) {
      uint64_t hits = 0, kept = 0;
      for (size_t i = begin; i < end; ++i) {
        SetId id = static_cast<SetId>(b0 + i);
        std::vector<SetId>& partners = block_partners_[i];
        for (Signature sig : block_sigs_[i]) {
          auto it = index_.find(sig);
          if (it != index_.end()) {
            hits += it->second.size();
            partners.insert(partners.end(), it->second.begin(),
                            it->second.end());
          }
          for (auto p = std::lower_bound(block_postings_.begin(),
                                         block_postings_.end(),
                                         kernels::Posting(sig, 0));
               p != block_postings_.end() && p->first == sig && p->second < id;
               ++p) {
            partners.push_back(p->second);
            ++hits;
          }
        }
        std::sort(partners.begin(), partners.end());
        partners.erase(std::unique(partners.begin(), partners.end()),
                       partners.end());
        kept += partners.size();
      }
      collisions[c] = hits;
      candidates[c] = kept;
    });
    for (size_t c = 0; c < chunks; ++c) {
      stats.signature_collisions += collisions[c];
      stats.candidates += candidates[c];
    }
  }
  if (ctx_->options->verify) {
    for (size_t i = 0; i < n; ++i) {
      SetId id = static_cast<SetId>(b0 + i);
      for (SetId partner : block_partners_[i]) {
        chunk.packed.push_back(PackPair(partner, id));
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (Signature sig : block_sigs_[i]) {
      index_[sig].push_back(static_cast<SetId>(b0 + i));
    }
  }
  rows_in_ += n;
  next_ = static_cast<SetId>(b1);
}

void PipelinedScanOperator::Close() {
  // Self-join: the right side's signatures are the left side's. Close
  // runs on every exit path, so partial-trip stats carry it too.
  JoinStats& stats = ctx_->result->stats;
  stats.signatures_s = stats.signatures_r;
  Operator::Close();
}

}  // namespace ssjoin::pipeline
