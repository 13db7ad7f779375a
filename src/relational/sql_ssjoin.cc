#include "relational/sql_ssjoin.h"

#include <algorithm>

#include <optional>

#include "obs/join_telemetry.h"
#include "relational/index.h"
#include "relational/operators.h"
#include "relational/query.h"
#include "text/edit_distance.h"
#include "text/qgram.h"
#include "util/timer.h"

namespace ssjoin::relational {

namespace {

// Signature(id, sign) from application-level signature generation
// (step 1 of Figure 10 / 16: "data crosses DBMS boundaries").
Table BuildSignatureTable(const SetCollection& input,
                          const SignatureScheme& scheme,
                          JoinStats* stats) {
  Table signature(Schema{{"id", ValueType::kInt64},
                         {"sign", ValueType::kInt64}});
  std::vector<Signature> scratch;
  for (SetId id = 0; id < input.size(); ++id) {
    scratch.clear();
    scheme.Generate(input.set(id), &scratch);
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()),
                  scratch.end());
    stats->signatures_r += scratch.size();
    for (Signature sig : scratch) {
      signature.AppendUnchecked(Row{static_cast<int64_t>(id),
                                    static_cast<int64_t>(sig)});
    }
  }
  stats->signatures_s = stats->signatures_r;
  return signature;
}

// CandPair(id1, id2):
//   Select Distinct S1.id, S2.id From Signature S1, Signature S2
//   Where S1.sign = S2.sign and S1.id < S2.id        (Figure 11 / 17)
Result<Table> BuildCandPair(const Table& signature, JoinStats* stats,
                            PlanExplain* explain) {
  Stopwatch watch;
  SSJOIN_ASSIGN_OR_RETURN(
      Table joined,
      Query::From(signature)
          .Join(signature, {"sign"}, {"sign"}, "s1.", "s2.",
                [](const Row& row) {
                  return GetInt64(row, 0) < GetInt64(row, 2);
                })
          .Run());
  stats->signature_collisions += joined.num_rows();
  uint64_t joined_rows = joined.num_rows();
  explain->AddOp(
      "HashJoin",
      "Signature s1 JOIN Signature s2 ON sign WHERE s1.id < s2.id",
      signature.num_rows(), joined_rows, watch.ElapsedSeconds());
  watch.Restart();
  SSJOIN_ASSIGN_OR_RETURN(Table cand, Query::From(std::move(joined))
                                          .SelectDistinct({"s1.id", "s2.id"})
                                          .Run());
  stats->candidates = cand.num_rows();
  explain->AddOp("Distinct",
                 "SELECT DISTINCT s1.id, s2.id AS CandPair(id1, id2)",
                 joined_rows, cand.num_rows(), watch.ElapsedSeconds());
  return cand;
}

// Rough per-row footprint of a materialized relational table, for memory
// budgeting (Row = vector of 8-byte Values plus vector overhead).
size_t TableRowBytes(const Table& table) {
  return table.num_rows() *
         (table.schema().num_columns() * sizeof(int64_t) +
          sizeof(void*) * 3);
}

std::vector<SetPair> DecodePairs(const Table& output) {
  std::vector<SetPair> pairs;
  pairs.reserve(output.num_rows());
  for (size_t i = 0; i < output.num_rows(); ++i) {
    pairs.emplace_back(static_cast<SetId>(GetInt64(output.row(i), 0)),
                       static_cast<SetId>(GetInt64(output.row(i), 1)));
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace

namespace {

// CandPairIntersect via index-nested-loop over the clustered index on
// Set(id, elem): for each candidate pair, range-scan both sets and
// merge-count equal elements (rows within an id are elem-sorted).
Result<Table> IndexIntersect(const Table& cand,
                             const ClusteredIndex& set_index) {
  const Table& set_rel = set_index.table();
  Table intersect(Schema{{"s1.id", ValueType::kInt64},
                         {"s2.id", ValueType::kInt64},
                         {"isize", ValueType::kInt64}});
  for (size_t c = 0; c < cand.num_rows(); ++c) {
    int64_t id1 = GetInt64(cand.row(c), 0);
    int64_t id2 = GetInt64(cand.row(c), 1);
    auto [b1, e1] = set_index.EqualRange(id1);
    auto [b2, e2] = set_index.EqualRange(id2);
    int64_t isize = 0;
    size_t i = b1, j = b2;
    while (i < e1 && j < e2) {
      int64_t x = GetInt64(set_rel.row(i), 1);
      int64_t y = GetInt64(set_rel.row(j), 1);
      if (x == y) {
        ++isize;
        ++i;
        ++j;
      } else if (x < y) {
        ++i;
      } else {
        ++j;
      }
    }
    // Inner-join semantics of the Figure 11 plan: pairs with an empty
    // intersection produce no CandPairIntersect row.
    if (isize > 0) {
      intersect.AppendUnchecked(Row{id1, id2, isize});
    }
  }
  return intersect;
}

}  // namespace

Result<DbmsJoinResult> DbmsSelfJoin(const SetCollection& input,
                                    const SignatureScheme& scheme,
                                    const Predicate& predicate,
                                    IntersectPlan plan,
                                    ExecutionGuard* guard,
                                    obs::Tracer* tracer,
                                    obs::MetricsRegistry* metrics) {
  DbmsJoinResult result;
  obs::JoinTelemetry telem(tracer, metrics, "join");
  telem.Attr("mode", "dbms_self");
  telem.Attr("input_sets", static_cast<uint64_t>(input.size()));
  telem.Attr("plan", plan == IntersectPlan::kHashJoin ? "hash_join"
                                                      : "clustered_index");
  result.explain.plan = "dbms_self";
  result.explain.variant =
      plan == IntersectPlan::kHashJoin ? "hash_join" : "clustered_index";

  if (guard != nullptr) {
    guard->BindMetrics(metrics);
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSigGen));
  }

  // Base relations (materialized in advance in the paper's setup, so not
  // counted in any phase): Set(id, elem), SetLen(id, len).
  Table set_rel(Schema{{"id", ValueType::kInt64},
                       {"elem", ValueType::kInt64}});
  Table setlen(Schema{{"id", ValueType::kInt64},
                      {"len", ValueType::kInt64}});
  for (SetId id = 0; id < input.size(); ++id) {
    for (ElementId e : input.set(id)) {
      set_rel.AppendUnchecked(Row{static_cast<int64_t>(id),
                                  static_cast<int64_t>(e)});
    }
    setlen.AppendUnchecked(Row{static_cast<int64_t>(id),
                               static_cast<int64_t>(input.set_size(id))});
  }
  // Clustered index on Set(id): sorted storage (built in advance too,
  // hence outside the timed phases). Elements within an id are kept
  // elem-sorted for the merge-based index plan.
  set_rel.SortBy({0, 1});
  std::optional<ClusteredIndex> set_index;
  if (plan == IntersectPlan::kClusteredIndex) {
    auto built = ClusteredIndex::Build(&set_rel, "id");
    if (!built.ok()) return built.status();
    set_index.emplace(std::move(built).value());
  }

  Table signature, cand;
  {
    auto scope =
        telem.Phase(kPhaseSigGen, &result.stats.siggen_seconds);
    signature = BuildSignatureTable(input, scheme, &result.stats);
  }
  result.explain.AddOp(
      "SigGen", "Signature(id, sign) via application signature generation",
      input.size(), signature.num_rows(), result.stats.siggen_seconds);
  telem.PhaseAttr("rows", signature.num_rows());
  telem.AddCount("dbms.rows.signature", signature.num_rows());
  if (guard != nullptr) {
    // Plan-step barrier: the Signature relation is materialized.
    guard->ChargeMemory(TableRowBytes(signature));
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
  }
  {
    auto scope =
        telem.Phase(kPhaseCandPair, &result.stats.candpair_seconds);
    SSJOIN_ASSIGN_OR_RETURN(
        cand, BuildCandPair(signature, &result.stats, &result.explain));
  }
  telem.PhaseAttr("rows", cand.num_rows());
  telem.AddCount("dbms.rows.candpair", cand.num_rows());
  if (guard != nullptr) {
    // Plan-step barrier: CandPair is materialized; the breaker can
    // already compare its size against the sample-free floor of 0
    // verified results (min-candidates gate keeps small joins safe).
    guard->ChargeMemory(TableRowBytes(cand));
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kVerify));
  }

  Table output(Schema{{"id1", ValueType::kInt64},
                      {"id2", ValueType::kInt64}});
  {
    auto scope = telem.Phase(kPhasePostFilter,
                             &result.stats.postfilter_seconds);
    // CandPairIntersect(id1, id2, isize):
    //   Select C.id1, C.id2, Count(*) From CandPair C, Set S1, Set S2
    //   Where C.id1 = S1.id and C.id2 = S2.id and S1.elem = S2.elem
    //   Group By C.id1, C.id2                                 (Figure 11)
    // then Output's SetLen joins, all as one pipeline. Candidates with an
    // empty intersection never appear (inner joins), matching the
    // Figure 11 plan; they cannot satisfy a positive-overlap predicate
    // anyway.
    Table intersect;
    Stopwatch op_watch;
    if (plan == IntersectPlan::kHashJoin) {
      SSJOIN_ASSIGN_OR_RETURN(
          intersect,
          Query::From(cand)
              .Join(set_rel, {"s1.id"}, {"id"}, "", "s1.")
              .Join(set_rel, {"s2.id", "s1.elem"}, {"id", "elem"}, "",
                    "s2.")
              .GroupByCount({"s1.id", "s2.id"}, "isize")
              .Run());
      result.explain.AddOp(
          "GroupByCount",
          "CandPair JOIN Set s1 JOIN Set s2 ON elem GROUP BY id1, id2 AS "
          "CandPairIntersect(id1, id2, isize)",
          cand.num_rows(), intersect.num_rows(),
          op_watch.ElapsedSeconds());
    } else {
      SSJOIN_ASSIGN_OR_RETURN(intersect, IndexIntersect(cand, *set_index));
      result.explain.AddOp(
          "IndexIntersect",
          "merge-count over the clustered index on Set(id) AS "
          "CandPairIntersect(id1, id2, isize)",
          cand.num_rows(), intersect.num_rows(),
          op_watch.ElapsedSeconds());
    }
    uint64_t intersect_rows = intersect.num_rows();
    op_watch.Restart();
    SSJOIN_ASSIGN_OR_RETURN(
        Table with_len2,
        Query::From(std::move(intersect))
            .Join(setlen, {"s1.id"}, {"id"}, "", "l1.")
            .Join(setlen, {"s2.id"}, {"id"}, "", "l2.")
            .Run());
    result.explain.AddOp("HashJoin",
                         "CandPairIntersect JOIN SetLen l1 JOIN SetLen l2",
                         intersect_rows, with_len2.num_rows(),
                         op_watch.ElapsedSeconds());
    op_watch.Restart();
    int id1_col = with_len2.schema().IndexOf("s1.id");
    int id2_col = with_len2.schema().IndexOf("s2.id");
    int isize_col = with_len2.schema().IndexOf("isize");
    int len1_col = with_len2.schema().IndexOf("l1.len");
    int len2_col = with_len2.schema().IndexOf("l2.len");
    for (size_t i = 0; i < with_len2.num_rows(); ++i) {
      const Row& row = with_len2.row(i);
      uint32_t len1 = static_cast<uint32_t>(GetInt64(row, len1_col));
      uint32_t len2 = static_cast<uint32_t>(GetInt64(row, len2_col));
      uint32_t isize = static_cast<uint32_t>(GetInt64(row, isize_col));
      if (predicate.Matches(len1, len2, isize)) {
        output.AppendUnchecked(Row{row[id1_col], row[id2_col]});
        ++result.stats.results;
      } else {
        ++result.stats.false_positives;
      }
    }
    // Candidates that had zero intersection also count as false positives
    // for stats parity with the driver.
    result.stats.false_positives +=
        cand.num_rows() - with_len2.num_rows();
    result.explain.AddOp(
        "Filter", "predicate(l1.len, l2.len, isize) AS Output(id1, id2)",
        with_len2.num_rows(), output.num_rows(),
        op_watch.ElapsedSeconds());
  }
  telem.PhaseAttr("rows", output.num_rows());
  telem.AddCount("dbms.rows.output", output.num_rows());
  telem.Attr("results", result.stats.results);
  if (guard != nullptr) {
    SSJOIN_RETURN_NOT_OK(guard->CheckBreaker(
        JoinPhase::kVerify, result.stats.candidates, result.stats.results));
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kVerify));
  }

  result.pairs = DecodePairs(output);
  result.output = std::move(output);
  return result;
}

Result<DbmsJoinResult> DbmsStringEditSelfJoin(
    const std::vector<std::string>& strings, uint32_t edit_threshold,
    uint32_t q, const SignatureScheme& scheme, ExecutionGuard* guard,
    obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
  DbmsJoinResult result;
  obs::JoinTelemetry telem(tracer, metrics, "join");
  telem.Attr("mode", "dbms_string_edit");
  telem.Attr("input_sets", static_cast<uint64_t>(strings.size()));
  result.explain.plan = "dbms_string_edit";

  if (guard != nullptr) {
    guard->BindMetrics(metrics);
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kSigGen));
  }

  // String(id, str) is the base relation; n-gram bags are generated
  // on-the-fly in application code during signature generation
  // (Figure 16: "we do not explicitly materialize the n-gram bags").
  Table signature, cand;
  {
    auto scope =
        telem.Phase(kPhaseSigGen, &result.stats.siggen_seconds);
    QgramExtractor extractor(QgramOptions{.q = q});
    SetCollectionBuilder builder;
    for (const std::string& s : strings) {
      builder.AddBag(extractor.Extract(s));
    }
    SetCollection bags = builder.Build();
    signature = BuildSignatureTable(bags, scheme, &result.stats);
  }
  result.explain.AddOp(
      "SigGen",
      "Signature(id, sign) via q-gram bags + application signature "
      "generation",
      strings.size(), signature.num_rows(), result.stats.siggen_seconds);
  telem.PhaseAttr("rows", signature.num_rows());
  telem.AddCount("dbms.rows.signature", signature.num_rows());
  if (guard != nullptr) {
    guard->ChargeMemory(TableRowBytes(signature));
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kCandGen));
  }
  {
    auto scope =
        telem.Phase(kPhaseCandPair, &result.stats.candpair_seconds);
    SSJOIN_ASSIGN_OR_RETURN(
        cand, BuildCandPair(signature, &result.stats, &result.explain));
  }
  telem.PhaseAttr("rows", cand.num_rows());
  telem.AddCount("dbms.rows.candpair", cand.num_rows());
  if (guard != nullptr) {
    guard->ChargeMemory(TableRowBytes(cand));
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kVerify));
  }

  Table output(Schema{{"id1", ValueType::kInt64},
                      {"id2", ValueType::kInt64}});
  {
    // Output: retrieve strings by id and check EDIT(s1, s2) <= k in
    // application code (Figure 17). No SSJoin-level hamming post-filter,
    // as the paper found it not to improve overall performance.
    auto scope = telem.Phase(kPhasePostFilter,
                             &result.stats.postfilter_seconds);
    for (size_t i = 0; i < cand.num_rows(); ++i) {
      int64_t a = GetInt64(cand.row(i), 0);
      int64_t b = GetInt64(cand.row(i), 1);
      if (WithinEditDistance(strings[static_cast<size_t>(a)],
                             strings[static_cast<size_t>(b)],
                             edit_threshold)) {
        output.AppendUnchecked(Row{a, b});
        ++result.stats.results;
      } else {
        ++result.stats.false_positives;
      }
    }
  }
  result.explain.AddOp(
      "Filter", "EDIT(s1, s2) <= k in application code AS Output(id1, id2)",
      cand.num_rows(), output.num_rows(),
      result.stats.postfilter_seconds);
  telem.PhaseAttr("rows", output.num_rows());
  telem.AddCount("dbms.rows.output", output.num_rows());
  telem.Attr("results", result.stats.results);
  if (guard != nullptr) {
    SSJOIN_RETURN_NOT_OK(guard->CheckBreaker(
        JoinPhase::kVerify, result.stats.candidates, result.stats.results));
    SSJOIN_RETURN_NOT_OK(guard->Checkpoint(JoinPhase::kVerify));
  }

  result.pairs = DecodePairs(output);
  result.output = std::move(output);
  return result;
}

}  // namespace ssjoin::relational
