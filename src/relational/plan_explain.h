// EXPLAIN for the DBMS-backed plans (DESIGN.md Section 9).
//
// The relational counterpart of obs/explain.h: every DbmsSelfJoin /
// DbmsStringEditSelfJoin fills a PlanExplain — one PlanOpExplain per
// executed plan operator, in execution order (leaf first), with stable
// rows-in/rows-out counters and runtime per-operator seconds.
//
// Stability split (obs/stability.h): operator names, details, and row
// counts are kStable — the plans are serial and deterministic, so
// Jsonl() is byte-identical across runs and thread counts. Seconds are
// kRuntime and appear only in the human Text() tree.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ssjoin::relational {

/// One executed plan operator.
struct PlanOpExplain {
  /// Operator kind ("siggen", "HashJoin", "Distinct", "GroupByCount",
  /// "IndexIntersect", "Filter").
  std::string op;
  /// SQL-ish rendering of what it computed.
  std::string detail;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  /// Wall-clock seconds (runtime-only; excluded from Jsonl()).
  double seconds = 0;
};

/// The operator tree of one executed DBMS plan. Ops are stored in
/// execution order — a linear pipeline here, so the rendering shows the
/// last op as the root with its input as the subtree.
struct PlanExplain {
  /// "dbms_self" or "dbms_string_edit".
  std::string plan;
  /// Intersect-plan variant for dbms_self ("hash_join" /
  /// "clustered_index"); empty otherwise.
  std::string variant;
  std::vector<PlanOpExplain> ops;

  void AddOp(std::string op, std::string detail, uint64_t rows_in,
             uint64_t rows_out, double seconds);

  /// Human-readable operator tree, root (output) first, with per-op row
  /// counts and milliseconds (timings marked as runtime).
  std::string Text() const;

  /// Deterministic JSONL: one "plan" header line, then one "plan_op"
  /// line per operator in execution order. No timings — the stable
  /// subset only.
  std::string Jsonl() const;
};

}  // namespace ssjoin::relational
