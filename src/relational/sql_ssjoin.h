// The paper's DBMS-backed SSJoin implementations (Figures 10/11, 16/17).
//
// The paper's experimental system pushes everything after signature
// generation into a regular DBMS: signatures land in a Signature(id, sign)
// relation, candidate pairs come from a self-join on sign, intersection
// sizes from a join with the base Set relation plus GROUP BY COUNT(*), and
// the final predicate check from a join with SetLen. This module expresses
// those exact query plans over the relational/ mini engine, demonstrating
// the paper's closing claim ("can be implemented on top of a regular DBMS
// with very little coding effort") and serving as a second, independent
// implementation that the tests compare against the in-memory driver.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/predicate.h"
#include "core/signature_scheme.h"
#include "core/ssjoin.h"
#include "data/collection.h"
#include "relational/plan_explain.h"
#include "relational/table.h"
#include "util/status.h"

namespace ssjoin::relational {

/// Result of a DBMS-plan join: the Output table, the decoded pairs,
/// driver-comparable stats, and the executed operator tree.
struct DbmsJoinResult {
  Table output;                  // Output(id1, id2)
  std::vector<SetPair> pairs;    // decoded + sorted
  JoinStats stats;
  /// EXPLAIN of the executed plan (relational/plan_explain.h): one row
  /// per operator with rows-in/rows-out (stable) and per-op timings
  /// (runtime). Always filled; a guard trip leaves the ops executed so
  /// far.
  PlanExplain explain;
};

/// Physical plan for the CandPairIntersect step (Figure 11's join of
/// CandPair with Set twice + GROUP BY COUNT):
///   kHashJoin        — hash equi-joins, as written in Figure 11;
///   kClusteredIndex  — index-nested-loop over the clustered index on
///                      Set(id), the optimization the paper's setup notes
///                      ("We built a clustered index over the input
///                      relation Set since it significantly improved the
///                      time to compute CandPairIntersect").
enum class IntersectPlan { kHashJoin, kClusteredIndex };

/// Figure 10/11: jaccard (or any count-predicate) SSJoin through the
/// relational plan: Set/SetLen/Signature → CandPair → CandPairIntersect →
/// Output. The predicate is evaluated from (len1, len2, isize), so any
/// Predicate whose Matches is count-determined works (jaccard, hamming,
/// overlap — not the weighted predicates).
///
/// `guard` (optional, not owned) attaches execution guardrails: the plan
/// checkpoints between its steps — materialized-table sizes are charged
/// against the memory budget and cancellation / deadline / breaker trips
/// surface as the Result's error Status (kCancelled, kDeadlineExceeded,
/// kResourceExhausted), mirroring the in-memory driver.
///
/// `tracer` / `metrics` (optional, not owned) attach observability with
/// the same contract as JoinOptions: the plan's three steps keep the
/// same stage ledger as Join()'s stages (obs::Stage) under the tags
/// `siggen` (Signature), `candgen` (CandPair) and `verify` (Output), so
/// the trace is a join → stage span skeleton and the registry gets
/// pipeline.<tag>.* counters whose rows are the materialized relations'
/// sizes. Each step's time feeds the matching JoinStats seconds field.
Result<DbmsJoinResult> DbmsSelfJoin(
    const SetCollection& input, const SignatureScheme& scheme,
    const Predicate& predicate,
    IntersectPlan plan = IntersectPlan::kHashJoin,
    ExecutionGuard* guard = nullptr, obs::Tracer* tracer = nullptr,
    obs::MetricsRegistry* metrics = nullptr);

/// Figure 16/17: edit-distance string join through the relational plan:
/// String/Signature → CandPair → edit-distance check in "application
/// code". `scheme` must be built over the strings' q-gram bags (q = gram
/// length used to build it). `guard` / `tracer` / `metrics` as in
/// DbmsSelfJoin.
Result<DbmsJoinResult> DbmsStringEditSelfJoin(
    const std::vector<std::string>& strings, uint32_t edit_threshold,
    uint32_t q, const SignatureScheme& scheme,
    ExecutionGuard* guard = nullptr, obs::Tracer* tracer = nullptr,
    obs::MetricsRegistry* metrics = nullptr);

}  // namespace ssjoin::relational
