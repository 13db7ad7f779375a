// Runtime guardrails for join execution.
//
// The paper's own experiments (Sections 4.3, 8, Table 1) show that
// PartEnum/WtEnum cost is exquisitely sensitive to its parameters: a bad
// (n1, n2) choice blows candidate generation up by orders of magnitude.
// For a join that runs inside a service rather than a benchmark, that
// sensitivity demands a substrate that can *bound* a run: cancel it from
// another thread, stop it at a wall-clock deadline, cap its memory, and
// trip a circuit breaker when candidates-per-verified-pair explodes —
// returning a structured Status with partial stats instead of melting
// down. ExecutionGuard is that substrate; all drivers in core/ssjoin.cc
// (and the relational plans in relational/sql_ssjoin.cc) consult one when
// JoinOptions::guard is set.
//
// Determinism contract (DESIGN.md Section 7): budget and circuit-breaker
// decisions are evaluated only at deterministic barriers — phase
// boundaries and fixed-size verification chunks — against totals that are
// identical for every thread count, so a budget trip happens at the same
// point with the same partial stats whether the join ran on 1 thread or
// N. Deadline and cancellation are inherently timing-driven; their *trip
// point* is best-effort, but the returned Status code is always exact.
// When a guard is attached and never trips, the join output is
// byte-identical to an unguarded run.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "util/thread_annotations.h"

namespace ssjoin::obs {
class MetricsRegistry;
}  // namespace ssjoin::obs

namespace ssjoin {

/// The Figure-2 phase a guard checkpoint is issued from. Used for trip
/// diagnostics and to target fault injection at a specific phase.
/// kSpill is the out-of-core partition write/read stage of the spill
/// driver (core/spill, DESIGN.md Section 12) — not a Figure-2 phase, but
/// its checkpoints need their own identity so disk-budget trips report
/// where they actually happened.
enum class JoinPhase { kSigGen = 0, kCandGen = 1, kVerify = 2, kSpill = 3 };

std::string_view JoinPhaseName(JoinPhase phase);

/// \brief Shared cooperative cancellation flag.
///
/// Copies share state: hand one copy to the thread running the join (via
/// ExecutionGuard) and keep another to call RequestCancel() from anywhere.
/// Cancellation is cooperative — the join stops at its next guard poll.
///
/// Thread-safety: lock-free by construction — the only shared state is
/// one atomic<bool> behind a shared_ptr, so there is no capability to
/// annotate; copying a token (which rebinds flag_) is the only
/// non-atomic operation and must stay on the thread that owns the copy.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Requests cancellation. Thread-safe, idempotent.
  void RequestCancel() { flag_->store(true, std::memory_order_release); }

  bool CancelRequested() const {
    return flag_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Limits a guard enforces. Zero values disable the corresponding check.
struct ExecutionBudget {
  /// Wall-clock budget in milliseconds, measured from ExecutionGuard
  /// construction (or the last Reset()). 0 = no deadline.
  int64_t deadline_ms = 0;
  /// Upper bound on bytes charged via ChargeMemory (postings, candidate
  /// and result allocations — the structures whose size is input- and
  /// parameter-dependent, not the fixed-size scaffolding). 0 = unlimited.
  size_t memory_budget_bytes = 0;
  /// Circuit breaker: trip when, at a verification barrier,
  ///   candidates_verified > max_candidate_ratio * max(1, results_found)
  /// i.e. the join is grinding through this many candidates per verified
  /// pair. 0 = breaker off.
  double max_candidate_ratio = 0;
  /// The breaker never trips before this many candidates were verified,
  /// so small joins cannot trip on startup noise.
  uint64_t breaker_min_candidates = 4096;
  /// Upper bound on bytes charged via ChargeDisk — the on-disk footprint
  /// of the spill partitions (core/spill). 0 = unlimited. A trip returns
  /// kResourceExhausted with TripReason::kDiskBudget ("disk").
  size_t disk_budget_bytes = 0;
};

/// \brief Cancellation + deadline + memory budget + candidate-explosion
/// circuit breaker for one join run (a "JoinGuard").
///
/// Drivers call Checkpoint(phase) at barriers (authoritative, latches the
/// first trip), ShouldStop() from worker loops (cheap poll that makes a
/// deadline/cancellation stop prompt), ChargeMemory/ReleaseMemory around
/// data-dependent allocations, and CheckBreaker at verification barriers.
/// Once tripped, every subsequent check returns the same latched Status;
/// the driver unwinds, fills partial stats, and returns it.
///
/// Thread-safety: all methods are safe to call concurrently; trip
/// latching serializes on an internal mutex, everything on the fast path
/// is a relaxed atomic.
class ExecutionGuard {
 public:
  explicit ExecutionGuard(const ExecutionBudget& budget,
                          CancellationToken token = {});

  ExecutionGuard(const ExecutionGuard&) = delete;
  ExecutionGuard& operator=(const ExecutionGuard&) = delete;

  /// Authoritative barrier check: injected faults, cancellation, the
  /// deadline, and the memory budget, in that order. Returns OK or the
  /// (now latched) trip Status. Call between phases and between
  /// fixed-size verification chunks — never from inside a parallel
  /// region, so budget decisions stay deterministic.
  Status Checkpoint(JoinPhase phase) SSJOIN_EXCLUDES(mutex_);

  /// Circuit-breaker barrier check (see ExecutionBudget). `candidates` /
  /// `results` are the totals verified / matched so far; both must be
  /// thread-count-independent at the call site.
  Status CheckBreaker(JoinPhase phase, uint64_t candidates,
                      uint64_t results) SSJOIN_EXCLUDES(mutex_);

  /// Cheap worker-loop poll: returns true once the guard has tripped or a
  /// cancellation / deadline stop is pending. Latches cancellation
  /// immediately; the deadline is re-read at most every few hundred polls
  /// so the clock read stays off the hot path.
  bool ShouldStop(JoinPhase phase) SSJOIN_EXCLUDES(mutex_);

  /// Adds `bytes` to the tracked allocation total. Thread-safe; checked
  /// only at the next Checkpoint, so workers may charge freely from
  /// parallel regions.
  void ChargeMemory(size_t bytes);
  /// Subtracts `bytes` (freed structures). Thread-safe.
  void ReleaseMemory(size_t bytes);

  /// Adds `bytes` to the tracked on-disk spill footprint. Thread-safe;
  /// like memory, the budget is only evaluated at the next Checkpoint.
  void ChargeDisk(size_t bytes);
  /// Subtracts `bytes` (deleted spill files). Thread-safe.
  void ReleaseDisk(size_t bytes);

  size_t memory_charged() const {
    return memory_bytes_.load(std::memory_order_relaxed);
  }
  size_t memory_high_water() const {
    return memory_high_water_.load(std::memory_order_relaxed);
  }
  size_t disk_charged() const {
    return disk_bytes_.load(std::memory_order_relaxed);
  }
  size_t disk_high_water() const {
    return disk_high_water_.load(std::memory_order_relaxed);
  }

  /// Seconds since construction / last Reset().
  double ElapsedSeconds() const;

  /// Phase of the most recent Checkpoint/ShouldStop call — a live "where
  /// is the join right now" reading for the progress heartbeat
  /// (obs/progress.h). Best-effort by nature (relaxed, may lag a racing
  /// phase transition by one poll); not part of the determinism
  /// contract.
  JoinPhase current_phase() const {
    return static_cast<JoinPhase>(
        current_phase_.load(std::memory_order_relaxed));
  }

  bool tripped() const { return stop_.load(std::memory_order_acquire); }
  /// The latched trip Status (OK if the guard never tripped).
  Status trip_status() const SSJOIN_EXCLUDES(mutex_);
  /// Phase the trip was latched in (meaningful only when tripped()).
  JoinPhase trip_phase() const SSJOIN_EXCLUDES(mutex_);

  /// Why the guard tripped; drives the PartEnum advisor-retry policy
  /// (retry only makes sense after a candidate explosion).
  enum class TripReason {
    kNone = 0,
    kCancelled,
    kDeadline,
    kMemory,
    kCandidateExplosion,
    kDiskBudget,
  };
  TripReason trip_reason() const SSJOIN_EXCLUDES(mutex_);

  /// Publishes trip causes into `metrics` (counters named
  /// "guard.trips.<reason>", incremented when a trip latches). Not owned;
  /// nullptr detaches. Drivers bind the registry from
  /// JoinOptions::metrics before the first checkpoint.
  void BindMetrics(obs::MetricsRegistry* metrics) SSJOIN_EXCLUDES(mutex_);

  /// Clears the trip latch and the memory charge so the guard can watch a
  /// retry run. The deadline stays anchored at construction time (a retry
  /// does not earn extra wall-clock) and the cancellation token is kept.
  void Reset() SSJOIN_EXCLUDES(mutex_);

  const ExecutionBudget& budget() const { return budget_; }

 private:
  // Latches `status` as the trip (first caller wins) and raises stop_.
  Status Latch(JoinPhase phase, TripReason reason, Status status)
      SSJOIN_EXCLUDES(mutex_);
  // Non-latching poll of cancellation and deadline; returns the would-be
  // trip, or nullopt.
  std::optional<std::pair<TripReason, Status>> PollTimingLimits(
      JoinPhase phase);

  const ExecutionBudget budget_;
  // Internally lock-free (one shared atomic<bool>); never rebound after
  // construction, so reads from any thread are safe.
  CancellationToken token_;  // ssjoin-lint: allow(guarded-by-required)
  // Fixed at construction; Reset() keeps the anchor by contract.
  std::chrono::steady_clock::time_point
      start_;  // ssjoin-lint: allow(guarded-by-required)

  std::atomic<bool> stop_{false};
  std::atomic<int> current_phase_{0};
  std::atomic<size_t> memory_bytes_{0};
  std::atomic<size_t> memory_high_water_{0};
  std::atomic<size_t> disk_bytes_{0};
  std::atomic<size_t> disk_high_water_{0};
  std::atomic<uint32_t> poll_count_{0};

  mutable util::Mutex mutex_;  // guards the trip record below
  Status trip_status_ SSJOIN_GUARDED_BY(mutex_);  // OK until tripped
  JoinPhase trip_phase_ SSJOIN_GUARDED_BY(mutex_) = JoinPhase::kSigGen;
  TripReason trip_reason_ SSJOIN_GUARDED_BY(mutex_) = TripReason::kNone;
  obs::MetricsRegistry* metrics_ SSJOIN_GUARDED_BY(mutex_) = nullptr;
};

/// Stable lowercase name of a trip reason ("none", "cancelled",
/// "deadline", "memory", "candidate_explosion", "disk") — the token used
/// in span events and in the guard.trips.* metric names.
std::string_view TripReasonName(ExecutionGuard::TripReason reason);

/// Wraps guard->ShouldStop(phase) for the interruptible ParallelFor
/// overload. Empty when no guard is attached, which selects the plain
/// (single-invocation-per-chunk) ParallelFor — unguarded runs execute the
/// exact pre-guard code path.
std::function<bool()> StopFn(ExecutionGuard* guard, JoinPhase phase);

namespace fault {

/// True when the library was compiled with SSJOIN_FAULT_INJECT (the
/// default; Release service builds may switch it off).
bool Enabled();

/// I/O operations the spill layer routes through the fault seam
/// (core/spill/spill_file.cc consults ConsumeIo before every real call).
enum class IoOp { kOpen = 0, kWrite = 1, kRead = 2 };

/// How a faulted I/O operation misbehaves.
enum class IoFault {
  /// Open fails outright (permissions / missing directory class).
  kFailOpen = 0,
  /// The write persists only a prefix of the buffer, then errors — the
  /// partial-write shape torn files are made of.
  kShortWrite = 1,
  /// The write fails with no-space semantics before any byte lands.
  kEnospc = 2,
  /// The read returns bit-flipped data; checksum validation must catch
  /// it and surface IOError.
  kCorruptRead = 3,
};

/// One scripted fault. Build via CheckpointTrip() / IoFaultAfter();
/// every spec is one-shot — it fires on its (after+1)-th matching event
/// and is then spent.
struct FaultSpec {
  enum class Kind { kCheckpoint = 0, kIo = 1 };
  Kind kind = Kind::kCheckpoint;
  /// kCheckpoint: target phase (nullopt = any) and forced Status code.
  std::optional<JoinPhase> phase;
  StatusCode code = StatusCode::kResourceExhausted;
  /// kIo: which operation to fault, and how.
  IoOp op = IoOp::kWrite;
  IoFault io = IoFault::kEnospc;
  /// Matching events to let pass before firing (0 = fire on the first).
  uint64_t after = 0;
};

/// A forced trip at the (after+1)-th Checkpoint issued from `phase`.
FaultSpec CheckpointTrip(std::optional<JoinPhase> phase, StatusCode code,
                         uint64_t after = 0);
/// An I/O fault on the (after+1)-th spill operation of kind `op`.
FaultSpec IoFaultAfter(IoOp op, IoFault io, uint64_t after = 0);

/// The runtime-scriptable fault schedule: an ordered list of one-shot
/// specs. Each checkpoint / spill-I/O event is offered to the specs in
/// order; the first unfired spec that matches counts the event, and
/// fires once its `after` threshold is crossed. Tests script multi-step
/// failure scenarios (e.g. "ENOSPC on the first write of two successive
/// attempts") without rebuilding.
struct FaultPlan {
  std::vector<FaultSpec> specs;
};

/// Installs `plan`, replacing any previous plan. No-op without
/// SSJOIN_FAULT_INJECT. Tests arm/clear serially (the plan itself is
/// consulted thread-safely).
void SetPlan(FaultPlan plan);

/// Legacy one-shot shim, kept as a thin wrapper: equivalent to
/// SetPlan({CheckpointTrip(phase, code)}).
void InjectTrip(std::optional<JoinPhase> phase, StatusCode code);

/// Disarms any pending plan.
void Clear();

/// Consumes a matching armed checkpoint fault for `phase`, if any.
/// Called by ExecutionGuard::Checkpoint; exposed for the guard only.
std::optional<StatusCode> ConsumeCheckpoint(JoinPhase phase);

/// Consumes a matching armed I/O fault for `op`, if any. Called by the
/// spill I/O seam before each real operation.
std::optional<IoFault> ConsumeIo(IoOp op);

}  // namespace fault

}  // namespace ssjoin
