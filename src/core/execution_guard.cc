#include "core/execution_guard.h"

#include <sstream>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace ssjoin {

std::string_view TripReasonName(ExecutionGuard::TripReason reason) {
  switch (reason) {
    case ExecutionGuard::TripReason::kNone:
      return "none";
    case ExecutionGuard::TripReason::kCancelled:
      return "cancelled";
    case ExecutionGuard::TripReason::kDeadline:
      return "deadline";
    case ExecutionGuard::TripReason::kMemory:
      return "memory";
    case ExecutionGuard::TripReason::kCandidateExplosion:
      return "candidate_explosion";
    case ExecutionGuard::TripReason::kDiskBudget:
      return "disk";
  }
  return "unknown";
}

std::function<bool()> StopFn(ExecutionGuard* guard, JoinPhase phase) {
  if (guard == nullptr) return {};
  return [guard, phase] { return guard->ShouldStop(phase); };
}

std::string_view JoinPhaseName(JoinPhase phase) {
  switch (phase) {
    case JoinPhase::kSigGen:
      return "SigGen";
    case JoinPhase::kCandGen:
      return "CandGen";
    case JoinPhase::kVerify:
      return "Verify";
    case JoinPhase::kSpill:
      return "Spill";
  }
  return "Unknown";
}

namespace fault {

#ifdef SSJOIN_FAULT_INJECT
namespace {

// The process-wide fault schedule. Checkpoints and spill I/O run at
// barrier / file-operation granularity, so a mutex on the slow path is
// fine; g_armed keeps the common no-plan case down to one relaxed load.
struct PlanState {
  // Number of specs not yet fired; mirrored into g_armed.
  size_t live = 0;
  std::vector<FaultSpec> specs;
  std::vector<uint64_t> seen;  // matching events counted per spec
  std::vector<bool> fired;
};

std::atomic<size_t> g_armed{0};
util::Mutex g_plan_mutex;
PlanState g_plan SSJOIN_GUARDED_BY(g_plan_mutex);

// Offers one event to the plan: the first unfired spec matching
// `matches` counts it, and fires once past its `after` threshold.
// Returns a copy of the fired spec, or nullopt.
template <typename Matches>
std::optional<FaultSpec> ConsumeEvent(const Matches& matches) {
  if (g_armed.load(std::memory_order_acquire) == 0) return std::nullopt;
  util::MutexLock lock(g_plan_mutex);
  for (size_t i = 0; i < g_plan.specs.size(); ++i) {
    if (g_plan.fired[i] || !matches(g_plan.specs[i])) continue;
    ++g_plan.seen[i];
    if (g_plan.seen[i] <= g_plan.specs[i].after) return std::nullopt;
    g_plan.fired[i] = true;
    --g_plan.live;
    g_armed.store(g_plan.live, std::memory_order_release);
    return g_plan.specs[i];
  }
  return std::nullopt;
}

}  // namespace
#endif  // SSJOIN_FAULT_INJECT

bool Enabled() {
#ifdef SSJOIN_FAULT_INJECT
  return true;
#else
  return false;
#endif
}

FaultSpec CheckpointTrip(std::optional<JoinPhase> phase, StatusCode code,
                         uint64_t after) {
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kCheckpoint;
  spec.phase = phase;
  spec.code = code;
  spec.after = after;
  return spec;
}

FaultSpec IoFaultAfter(IoOp op, IoFault io, uint64_t after) {
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kIo;
  spec.op = op;
  spec.io = io;
  spec.after = after;
  return spec;
}

void SetPlan(FaultPlan plan) {
#ifdef SSJOIN_FAULT_INJECT
  util::MutexLock lock(g_plan_mutex);
  g_plan.specs = std::move(plan.specs);
  g_plan.seen.assign(g_plan.specs.size(), 0);
  g_plan.fired.assign(g_plan.specs.size(), false);
  g_plan.live = g_plan.specs.size();
  g_armed.store(g_plan.live, std::memory_order_release);
#else
  (void)plan;
#endif
}

void InjectTrip(std::optional<JoinPhase> phase, StatusCode code) {
  FaultPlan plan;
  plan.specs.push_back(CheckpointTrip(phase, code));
  SetPlan(std::move(plan));
}

void Clear() { SetPlan(FaultPlan{}); }

std::optional<StatusCode> ConsumeCheckpoint(JoinPhase phase) {
#ifdef SSJOIN_FAULT_INJECT
  std::optional<FaultSpec> fired = ConsumeEvent([&](const FaultSpec& spec) {
    return spec.kind == FaultSpec::Kind::kCheckpoint &&
           (!spec.phase.has_value() || *spec.phase == phase);
  });
  if (!fired) return std::nullopt;
  return fired->code;
#else
  (void)phase;
  return std::nullopt;
#endif
}

std::optional<IoFault> ConsumeIo(IoOp op) {
#ifdef SSJOIN_FAULT_INJECT
  std::optional<FaultSpec> fired = ConsumeEvent([&](const FaultSpec& spec) {
    return spec.kind == FaultSpec::Kind::kIo && spec.op == op;
  });
  if (!fired) return std::nullopt;
  return fired->io;
#else
  (void)op;
  return std::nullopt;
#endif
}

}  // namespace fault

ExecutionGuard::ExecutionGuard(const ExecutionBudget& budget,
                               CancellationToken token)
    : budget_(budget),
      token_(std::move(token)),
      start_(std::chrono::steady_clock::now()) {}

double ExecutionGuard::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

Status ExecutionGuard::Latch(JoinPhase phase, TripReason reason,
                             Status status) {
  util::MutexLock lock(mutex_);
  if (trip_reason_ == TripReason::kNone) {
    trip_status_ = std::move(status);
    trip_phase_ = phase;
    trip_reason_ = reason;
    stop_.store(true, std::memory_order_release);
    if (metrics_ != nullptr) {
      metrics_
          ->counter(std::string("guard.trips.") +
                    std::string(TripReasonName(reason)))
          .Add(1);
    }
  }
  return trip_status_;
}

void ExecutionGuard::BindMetrics(obs::MetricsRegistry* metrics) {
  util::MutexLock lock(mutex_);
  metrics_ = metrics;
}

Status ExecutionGuard::trip_status() const {
  util::MutexLock lock(mutex_);
  return trip_status_;
}

JoinPhase ExecutionGuard::trip_phase() const {
  util::MutexLock lock(mutex_);
  return trip_phase_;
}

ExecutionGuard::TripReason ExecutionGuard::trip_reason() const {
  util::MutexLock lock(mutex_);
  return trip_reason_;
}

void ExecutionGuard::Reset() {
  util::MutexLock lock(mutex_);
  trip_status_ = Status::OK();
  trip_reason_ = TripReason::kNone;
  stop_.store(false, std::memory_order_release);
  memory_bytes_.store(0, std::memory_order_relaxed);
  disk_bytes_.store(0, std::memory_order_relaxed);
  poll_count_.store(0, std::memory_order_relaxed);
}

std::optional<std::pair<ExecutionGuard::TripReason, Status>>
ExecutionGuard::PollTimingLimits(JoinPhase phase) {
  if (token_.CancelRequested()) {
    return std::make_pair(
        TripReason::kCancelled,
        Status::Cancelled(std::string("join cancelled during ") +
                          std::string(JoinPhaseName(phase))));
  }
  if (budget_.deadline_ms > 0) {
    double elapsed_ms = ElapsedSeconds() * 1e3;
    if (elapsed_ms > static_cast<double>(budget_.deadline_ms)) {
      std::ostringstream os;
      os << "join deadline of " << budget_.deadline_ms
         << " ms exceeded during " << JoinPhaseName(phase) << " ("
         << static_cast<int64_t>(elapsed_ms) << " ms elapsed)";
      return std::make_pair(TripReason::kDeadline,
                            Status::DeadlineExceeded(os.str()));
    }
  }
  return std::nullopt;
}

Status ExecutionGuard::Checkpoint(JoinPhase phase) {
  current_phase_.store(static_cast<int>(phase), std::memory_order_relaxed);
  if (tripped()) return trip_status();
  if (auto forced = fault::ConsumeCheckpoint(phase)) {
    TripReason reason = TripReason::kNone;
    switch (*forced) {
      case StatusCode::kCancelled:
        reason = TripReason::kCancelled;
        break;
      case StatusCode::kDeadlineExceeded:
        reason = TripReason::kDeadline;
        break;
      default:
        reason = TripReason::kMemory;
        break;
    }
    std::ostringstream os;
    os << "fault injection: forced " << StatusCodeToString(*forced)
       << " trip in " << JoinPhaseName(phase);
    return Latch(phase, reason, Status(*forced, os.str()));
  }
  if (auto trip = PollTimingLimits(phase)) {
    return Latch(phase, trip->first, std::move(trip->second));
  }
  if (budget_.memory_budget_bytes > 0) {
    size_t charged = memory_bytes_.load(std::memory_order_acquire);
    if (charged > budget_.memory_budget_bytes) {
      std::ostringstream os;
      os << "join memory budget exceeded during " << JoinPhaseName(phase)
         << ": " << charged << " bytes charged, budget "
         << budget_.memory_budget_bytes << " bytes";
      return Latch(phase, TripReason::kMemory,
                   Status::ResourceExhausted(os.str()));
    }
  }
  if (budget_.disk_budget_bytes > 0) {
    size_t charged = disk_bytes_.load(std::memory_order_acquire);
    if (charged > budget_.disk_budget_bytes) {
      std::ostringstream os;
      os << "join disk budget exceeded during " << JoinPhaseName(phase)
         << ": " << charged << " bytes spilled, budget "
         << budget_.disk_budget_bytes << " bytes";
      return Latch(phase, TripReason::kDiskBudget,
                   Status::ResourceExhausted(os.str()));
    }
  }
  return Status::OK();
}

Status ExecutionGuard::CheckBreaker(JoinPhase phase, uint64_t candidates,
                                    uint64_t results) {
  if (tripped()) return trip_status();
  if (budget_.max_candidate_ratio <= 0) return Status::OK();
  if (candidates < budget_.breaker_min_candidates) return Status::OK();
  double floor = results == 0 ? 1.0 : static_cast<double>(results);
  double ratio = static_cast<double>(candidates) / floor;
  if (ratio <= budget_.max_candidate_ratio) return Status::OK();
  std::ostringstream os;
  os << "candidate explosion during " << JoinPhaseName(phase) << ": "
     << candidates << " candidates for " << results
     << " verified pairs (ratio " << ratio << " > limit "
     << budget_.max_candidate_ratio << ")";
  return Latch(phase, TripReason::kCandidateExplosion,
               Status::ResourceExhausted(os.str()));
}

bool ExecutionGuard::ShouldStop(JoinPhase phase) {
  // Publish the phase for the progress heartbeat, but only on change:
  // an unconditional store from every worker poll would ping-pong the
  // cache line, while a same-value load stays shared.
  if (current_phase_.load(std::memory_order_relaxed) !=
      static_cast<int>(phase)) {
    current_phase_.store(static_cast<int>(phase), std::memory_order_relaxed);
  }
  if (stop_.load(std::memory_order_acquire)) return true;
  if (token_.CancelRequested()) {
    // The latched Status is surfaced by the driver via trip_status();
    // this poll only reports "stop now".
    (void)Latch(  // ssjoin-lint: allow(status-must-use)
        phase, TripReason::kCancelled,
        Status::Cancelled(std::string("join cancelled during ") +
                          std::string(JoinPhaseName(phase))));
    return true;
  }
  if (budget_.deadline_ms > 0) {
    // Clock reads are rate-limited: only every 256th poll (across all
    // workers) pays for one. Deadline promptness stays well under a
    // worker block's granularity.
    uint32_t n = poll_count_.fetch_add(1, std::memory_order_relaxed);
    if (n % 256 == 0 &&
        ElapsedSeconds() * 1e3 > static_cast<double>(budget_.deadline_ms)) {
      std::ostringstream os;
      os << "join deadline of " << budget_.deadline_ms
         << " ms exceeded during " << JoinPhaseName(phase);
      // Same contract as the cancellation branch above.
      (void)Latch(  // ssjoin-lint: allow(status-must-use)
          phase, TripReason::kDeadline, Status::DeadlineExceeded(os.str()));
      return true;
    }
  }
  return false;
}

void ExecutionGuard::ChargeMemory(size_t bytes) {
  size_t now =
      memory_bytes_.fetch_add(bytes, std::memory_order_acq_rel) + bytes;
  size_t high = memory_high_water_.load(std::memory_order_relaxed);
  while (now > high && !memory_high_water_.compare_exchange_weak(
                           high, now, std::memory_order_relaxed)) {
  }
}

void ExecutionGuard::ReleaseMemory(size_t bytes) {
  memory_bytes_.fetch_sub(bytes, std::memory_order_acq_rel);
}

void ExecutionGuard::ChargeDisk(size_t bytes) {
  size_t now =
      disk_bytes_.fetch_add(bytes, std::memory_order_acq_rel) + bytes;
  size_t high = disk_high_water_.load(std::memory_order_relaxed);
  while (now > high && !disk_high_water_.compare_exchange_weak(
                           high, now, std::memory_order_relaxed)) {
  }
}

void ExecutionGuard::ReleaseDisk(size_t bytes) {
  disk_bytes_.fetch_sub(bytes, std::memory_order_acq_rel);
}

}  // namespace ssjoin
