#include "core/pipeline/spill_partition_operator.h"

#include <algorithm>
#include <utility>

#include "core/execution_guard.h"
#include "core/spill/spill_join.h"
#include "obs/log.h"

namespace ssjoin::pipeline {

Status SpillPartitionOperator::Produce() {
  ExecutionGuard* guard = ctx_->guard;
  JoinStats& stats = ctx_->result->stats;
  const JoinOptions& options = *ctx_->options;
  rows_in_ = ctx_->left->size() +
             (ctx_->right != nullptr ? ctx_->right->size() : 0);
  if (guard != nullptr) {
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSigGen));
  }
  uint32_t partitions = options.spill.partitions != 0
                            ? options.spill.partitions
                            : spill::kDefaultPartitions;
  uint64_t retries = 0;
  while (true) {
    JoinStats attempt;
    std::vector<uint64_t> attempt_candidates;
    Status st = spill::RunAttempt(
        *ctx_->left, ctx_->right, *ctx_->scheme, options, partitions,
        *ctx_->pool, guard, *ctx_->telem, &attempt, &attempt_candidates);
    // I/O bytes accumulate across attempts — failed work was still disk
    // traffic the operator pays for.
    stats.spill_bytes_written += attempt.spill_bytes_written;
    stats.spill_bytes_read += attempt.spill_bytes_read;
    stats.spill_partitions = partitions;
    stats.spill_retries = retries;
    if (st.ok()) {
      stats.signatures_r = attempt.signatures_r;
      stats.signatures_s = attempt.signatures_s;
      stats.signature_collisions = attempt.signature_collisions;
      stats.candidates = attempt.candidates;
      candidates_ = std::move(attempt_candidates);
      break;
    }
    // Guard trips are final (the budget does not heal by retrying) and
    // only I/O failures are transient; everything else surrenders too.
    const bool retryable = st.code() == StatusCode::kIOError &&
                           (guard == nullptr || !guard->tripped()) &&
                           retries < options.spill.max_retries;
    if (!retryable) {
      // A trip or exhausted retry keeps the completed-signature counts
      // (deterministic: the write stage either finished or reports 0)
      // but no candidate accounting — those counters stopped mid-flight.
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
    guard->ChargeMemory(candidates_.size() * sizeof(uint64_t));
  }
  rows_out_ = stats.candidates;
  return Status::OK();
}

Status SpillPartitionOperator::NextBatch(Batch* out) {
  if (!produced_) {
    produced_ = true;
    SSJOIN_RETURN_NOT_OK(Produce());
  }
  EmitCandidateSlice(candidates_, &pos_, out);
  return Status::OK();
}

void SpillPartitionOperator::Close() { Operator::Close(); }

}  // namespace ssjoin::pipeline
