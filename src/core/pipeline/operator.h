// The batch-at-a-time operator API behind Join(JoinRequest) (DESIGN.md
// Section 13).
//
// Every execution mode is a Plan: a linear chain of Operators pulled
// sink-first (Volcano style, one Batch at a time). The one driver in
// core/ssjoin.cc builds the chain (core/pipeline/plan_builder.h) and
// runs it; the phase logic — guard checkpoints, telemetry spans, stats
// commits — lives in exactly one operator each.
//
// Cross-cutting concerns attach ONCE here at the base:
//
//   * The operator ledger (DESIGN.md Section 14): every pull goes
//     through Pull(), which wraps NextBatch() in the operator's
//     obs::OpInstrument — the one place a plan is timed. It accounts
//     self-time (the input's nested pulls subtracted), inclusive time
//     and batches on every run, sinks or not.
//   * Derived accounting at Close(): the operator's self-time is added
//     to the one JoinStats seconds field it feeds (the constructor's
//     `seconds` member pointer; see JoinStats in core/ssjoin.h), and
//     the ExplainReport gets one PlanOp (name, detail, rows in/out,
//     self seconds) per operator, in chain order, plus the rows_out
//     drift actual. Row counts must be derived from deterministic stats
//     (signatures, candidates, results) — never batch counts, which
//     vary with scheduling.
//   * Sinks: Plan::Run() binds each instrument to the run's telemetry.
//     With a MetricsRegistry it publishes pipeline.<tag>.{batches,
//     rows_in,rows_out,ns}; with a Tracer it opens one kStable span per
//     operator, named by the tag, under the join root — the parent of
//     the runtime samples the operator opens while inside Pull.
//   * Lifecycle: Plan::Run() pulls the sink to exhaustion or error, and
//     closes every operator on every exit path (Close must be safe
//     after an aborted or skipped pull loop).
//
// Contract (enforced by the `operator-contract` AST-lint rule): every
// Operator subclass overrides Close() and finishes it with
// Operator::Close(); operators never read clocks directly (Pull times
// them) and never emit unregistered metric names.
//
// Thread-safety: operators run on the control thread; they fan work out
// through ParallelFor/RunOnAll internally, exactly as the drivers did.
// A Plan is single-use: build, Run once, destroy.

#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline/chunk.h"
#include "core/ssjoin.h"
#include "obs/join_telemetry.h"
#include "util/status.h"

namespace ssjoin {
class ExecutionGuard;
class ThreadPool;
}  // namespace ssjoin

namespace ssjoin::pipeline {

/// Everything a chain shares for one join execution. Plain pointers —
/// the driver owns all of it; the context just wires operators to the
/// same join-scoped state the monolithic drivers closed over.
struct ExecContext {
  const SetCollection* left = nullptr;
  /// Null for the self-join modes (the spilled self path included).
  const SetCollection* right = nullptr;
  const SignatureScheme* scheme = nullptr;
  const Predicate* predicate = nullptr;
  /// Spill policy already resolved (never SpillPolicy::kDefault).
  const JoinOptions* options = nullptr;
  ThreadPool* pool = nullptr;
  ExecutionGuard* guard = nullptr;
  obs::JoinTelemetry* telem = nullptr;
  JoinResult* result = nullptr;

  /// Set by an operator when the auto-spill budget check fires: the
  /// chain winds down cleanly (no guard latch) and the driver reruns
  /// with a spilled plan.
  bool degrade = false;
};

class Operator {
 public:
  virtual ~Operator() = default;
  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Produces the next batch into `*out` (Reset by the caller). An end
  /// batch (Batch::Kind::kEnd) terminates the pull loop; a non-OK
  /// Status aborts it (guard trips surface here).
  virtual Status NextBatch(Batch* out) = 0;

  /// Tears down: flushes the instrument (final row totals, span
  /// close), adds the operator's self-time to its JoinStats seconds
  /// field, and records its PlanOp and rows_out drift actual into the
  /// explain report. Runs on every exit path, including after an
  /// aborted pull loop. Subclasses MUST override (the operator-contract
  /// lint rule) and end with Operator::Close().
  virtual void Close();

  /// Timed pull: callers (the downstream operator and Plan::Run) use
  /// this, never NextBatch directly. Accounts the pull into the
  /// operator's ledger with self-time attribution.
  Status Pull(Batch* out);

  /// Binds the per-operator instrument to the run's telemetry (called
  /// once by Plan::Run before the first pull; `lane` is the operator's
  /// chain position).
  void BindInstrument(obs::JoinTelemetry* telemetry, uint32_t lane) {
    inst_.Bind(telemetry, tag_, lane);
  }

  void set_input(Operator* input) { input_ = input; }
  const std::string& name() const { return name_; }

 protected:
  /// `tag` is the operator's stable metric and span tag (a names::kOp*
  /// constant from obs/stability.h). `seconds` is the JoinStats field
  /// its self-time feeds (the Figure 2 step it belongs to), or null for
  /// an operator outside those steps.
  Operator(ExecContext* ctx, std::string name, std::string detail,
           std::string_view tag, double JoinStats::*seconds)
      : ctx_(ctx), name_(std::move(name)), detail_(std::move(detail)),
        tag_(tag), seconds_(seconds) {}

  ExecContext* ctx_;
  Operator* input_ = nullptr;
  /// Deterministic row counts for the explain plan tree, maintained by
  /// the subclass (from stats totals, never batch counts).
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;

 private:
  std::string name_;
  std::string detail_;
  std::string_view tag_;  // static-storage names:: constant
  double JoinStats::*seconds_;
  obs::OpInstrument inst_;
};

/// A linear operator chain, source first. Owns its operators.
class Plan {
 public:
  explicit Plan(ExecContext* ctx) : ctx_(ctx) {}

  /// Appends `op`, wiring its input to the previous operator.
  Operator* Add(std::unique_ptr<Operator> op);

  /// Pulls the sink until an end batch or error, then closes every
  /// operator in chain order (always — the close pass is what records
  /// the executed plan tree). Returns the first error.
  Status Run();

 private:
  ExecContext* ctx_;
  std::vector<std::unique_ptr<Operator>> ops_;
};

}  // namespace ssjoin::pipeline
