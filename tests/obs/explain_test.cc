// EXPLAIN layer contracts (obs/explain.h, relational/plan_explain.h;
// DESIGN.md Section 9):
//
//   * DriftEntry::Ratio edge cases (both-zero, actual-zero, one-sided);
//   * ExplainReport accumulation semantics (Predict/Actual add, SetParam
//     replaces in place);
//   * AttachAdvisorTrace turns the chosen candidate into predictions;
//   * ExplainJsonl is byte-identical across thread counts, carries no
//     wall-clock fields, and omits non-finite ratios;
//   * the driver fills actuals + phase seconds through
//     JoinOptions::explain, including on guard trips, and each plan
//     row's self time renders in the text only;
//   * PlanExplain::Jsonl is run-to-run byte-identical and timing-free
//     while Text() carries the runtime milliseconds.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/execution_guard.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "data/generators.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "relational/sql_ssjoin.h"
#include "text/tokenizer.h"

namespace ssjoin {
namespace {

SetCollection Workload(size_t n, uint64_t seed) {
  AddressOptions options;
  options.num_strings = n;
  options.duplicate_fraction = 0.2;
  options.max_typos = 2;
  options.seed = seed;
  WordTokenizer tokenizer;
  return tokenizer.TokenizeAll(GenerateAddressStrings(options));
}

Result<PartEnumJaccardScheme> MakeScheme(const SetCollection& input,
                                         double gamma) {
  PartEnumJaccardParams params;
  params.gamma = gamma;
  params.max_set_size = input.max_set_size();
  return PartEnumJaccardScheme::Create(params);
}

TEST(DriftEntryTest, RatioEdgeCases) {
  obs::DriftEntry entry;
  entry.has_predicted = true;
  entry.has_actual = true;
  entry.predicted = 90;
  entry.actual = 100;
  EXPECT_DOUBLE_EQ(entry.Ratio(), 0.9);

  entry.predicted = 0;
  entry.actual = 0;
  EXPECT_DOUBLE_EQ(entry.Ratio(), 1.0)
      << "a correct prediction of nothing is a perfect ratio";

  entry.predicted = 5;
  entry.actual = 0;
  EXPECT_TRUE(std::isinf(entry.Ratio()));
  EXPECT_GT(entry.Ratio(), 0);

  entry.has_predicted = false;
  EXPECT_DOUBLE_EQ(entry.Ratio(), 0.0);
  entry.has_predicted = true;
  entry.has_actual = false;
  EXPECT_DOUBLE_EQ(entry.Ratio(), 0.0);
}

TEST(ExplainReportTest, PredictAndActualAccumulate) {
  obs::ExplainReport report;
  report.Predict("join.signatures", 100);
  report.Predict("join.signatures", 50);
  report.Actual("join.signatures", 120);
  const obs::DriftEntry* entry = report.Find("join.signatures");
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->has_predicted);
  EXPECT_TRUE(entry->has_actual);
  EXPECT_DOUBLE_EQ(entry->predicted, 150);
  EXPECT_DOUBLE_EQ(entry->actual, 120);
  EXPECT_DOUBLE_EQ(entry->Ratio(), 1.25);
  EXPECT_EQ(report.Find("join.nonexistent"), nullptr);
}

TEST(ExplainReportTest, SetParamReplacesInPlace) {
  obs::ExplainReport report;
  report.SetParam("gamma", "0.9");
  report.SetParam("k", "4");
  report.SetParam("gamma", "0.8");
  ASSERT_EQ(report.params.size(), 2u);
  EXPECT_EQ(report.params[0].first, "gamma");
  EXPECT_EQ(report.params[0].second, "0.8");
  EXPECT_EQ(report.params[1].first, "k");
}

TEST(ExplainReportTest, AttachAdvisorTraceConvertsChosenToPredictions) {
  obs::AdvisorTrace trace;
  trace.method = "partenum";
  trace.sample_size = 100;
  trace.target_input_size = 1000;
  obs::AdvisorCandidate loser;
  loser.label = "n1=1,n2=4";
  loser.predicted_f2 = 500;
  obs::AdvisorCandidate winner;
  winner.label = "n1=2,n2=6";
  winner.predicted_signatures = 200;
  winner.predicted_collisions = 40;
  winner.predicted_f2 = 240;
  winner.chosen = true;
  trace.candidates = {loser, winner};

  obs::ExplainReport report;
  obs::AttachAdvisorTrace(&report, trace);
  EXPECT_EQ(report.advisor.method, "partenum");
  ASSERT_EQ(report.advisor.candidates.size(), 2u);
  ASSERT_NE(report.advisor.Chosen(), nullptr);
  EXPECT_EQ(report.advisor.Chosen()->label, "n1=2,n2=6");

  const obs::DriftEntry* signatures = report.Find("join.signatures");
  ASSERT_NE(signatures, nullptr);
  EXPECT_DOUBLE_EQ(signatures->predicted, 200);
  EXPECT_FALSE(signatures->has_actual);
  const obs::DriftEntry* f2 = report.Find("join.f2");
  ASSERT_NE(f2, nullptr);
  EXPECT_DOUBLE_EQ(f2->predicted, 240);
}

// Runs the self-join with an ExplainReport attached and returns its
// stable JSONL rendering.
std::string ExplainExport(const SetCollection& input,
                          const PartEnumJaccardScheme& scheme,
                          double gamma, size_t threads) {
  JaccardPredicate predicate(gamma);
  obs::ExplainReport report;
  JoinRequest request;
  request.left = &input;
  request.scheme = &scheme;
  request.predicate = &predicate;
  request.mode = ExecutionMode::kSelfJoin;
  request.options.num_threads = threads;
  request.options.explain = &report;
  JoinResult result = Join(request);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(report.joins, 1u);
  EXPECT_GT(report.siggen_seconds + report.candpair_seconds +
                report.postfilter_seconds,
            0.0)
      << "runtime phase seconds must accumulate alongside the stable data";
  return obs::ExplainJsonl(report);
}

TEST(ExplainDeterminismTest, JsonlIsThreadCountInvariant) {
  SetCollection input = Workload(400, 91);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  std::string serial = ExplainExport(input, *scheme, 0.85, 1);
  std::string parallel = ExplainExport(input, *scheme, 0.85, 4);
  EXPECT_EQ(serial, parallel)
      << "ExplainJsonl must be byte-identical across thread counts";
  EXPECT_NE(serial.find("\"type\":\"explain\""), std::string::npos);
  EXPECT_NE(serial.find("\"join.signatures\""), std::string::npos);
  EXPECT_EQ(serial.find("seconds"), std::string::npos)
      << "wall-clock fields must never reach the stable export";
  EXPECT_EQ(serial.find("threads"), std::string::npos)
      << "the thread count is runtime configuration, not a stable param";
}

// Each executed operator's self time (from the pull ledger) renders on
// its plan row in the text, ties out to the JoinStats field it feeds,
// and never reaches the stable JSONL.
TEST(ExplainDeterminismTest, PlanSelfTimeIsTextOnly) {
  SetCollection input = Workload(400, 95);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);
  obs::ExplainReport report;
  JoinRequest request = SelfJoinRequest(input, *scheme, predicate);
  request.options.explain = &report;
  request.options.spill.policy = SpillPolicy::kDisabled;
  JoinResult result = Join(request);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  ASSERT_EQ(report.plan.size(), 5u);  // siggen .. dedup_emit
  EXPECT_EQ(report.plan[0].op, "siggen");
  EXPECT_DOUBLE_EQ(report.plan[0].self_seconds, result.stats.siggen_seconds);
  EXPECT_EQ(report.plan[1].op, "candgen");
  EXPECT_DOUBLE_EQ(report.plan[1].self_seconds,
                   result.stats.candpair_seconds);
  EXPECT_DOUBLE_EQ(report.plan[2].self_seconds + report.plan[3].self_seconds,
                   result.stats.postfilter_seconds);

  std::string text = obs::ExplainText(report);
  for (const obs::PlanOp& op : report.plan) {
    size_t row = text.find(op.op + " " + op.detail + "  rows_in=");
    ASSERT_NE(row, std::string::npos) << op.op;
    std::string line = text.substr(row, text.find('\n', row) - row);
    EXPECT_NE(line.find(" self="), std::string::npos) << line;
  }
  // Every plan_op line ends at its row counts: no timing field follows.
  std::string jsonl = obs::ExplainJsonl(report);
  size_t plan_ops = 0;
  for (size_t at = jsonl.find("\"type\":\"plan_op\"");
       at != std::string::npos;
       at = jsonl.find("\"type\":\"plan_op\"", at + 1)) {
    ++plan_ops;
    std::string line = jsonl.substr(at, jsonl.find('\n', at) - at);
    size_t rows_out = line.find("\"rows_out\":");
    ASSERT_NE(rows_out, std::string::npos) << line;
    std::string tail = line.substr(rows_out + 11);
    EXPECT_EQ(tail.find_first_not_of("0123456789"), tail.size() - 1)
        << "operator self time must stay out of the stable export: "
        << line;
  }
  EXPECT_EQ(plan_ops, report.plan.size());
}

TEST(ExplainDeterminismTest, NonFiniteRatiosAreOmitted) {
  obs::ExplainReport report;
  report.Predict("join.signatures", 100);
  report.Actual("join.signatures", 0);  // ratio = +inf
  report.Predict("join.candidates", 50);
  report.Actual("join.candidates", 100);
  std::string jsonl = obs::ExplainJsonl(report);
  EXPECT_NE(jsonl.find("\"join.candidates\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"ratio\":0.5"), std::string::npos);
  // The infinite ratio renders predicted/actual but no ratio field on
  // its line (inf is not valid JSON).
  size_t line_start = jsonl.find("\"join.signatures\"");
  ASSERT_NE(line_start, std::string::npos);
  size_t line_end = jsonl.find('\n', line_start);
  std::string line = jsonl.substr(line_start, line_end - line_start);
  EXPECT_EQ(line.find("ratio"), std::string::npos);
  EXPECT_NE(line.find("\"predicted\":100"), std::string::npos);
  EXPECT_EQ(jsonl.find("inf"), std::string::npos)
      << "non-finite values must never be serialized";
}

TEST(ExplainDriverTest, GuardTripIsRecorded) {
  SetCollection input = Workload(300, 92);
  auto scheme = MakeScheme(input, 0.6);  // weak threshold: many candidates
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.6);
  ExecutionBudget budget;
  budget.max_candidate_ratio = 0.0001;  // trips on the first checkpoint
  budget.breaker_min_candidates = 1;
  ExecutionGuard guard(budget);
  obs::ExplainReport report;
  JoinRequest request;
  request.left = &input;
  request.scheme = &*scheme;
  request.predicate = &predicate;
  request.mode = ExecutionMode::kSelfJoin;
  request.options.guard = &guard;
  request.options.explain = &report;
  JoinResult result = Join(request);
  ASSERT_FALSE(result.status.ok());
  EXPECT_FALSE(report.trip.empty());
  EXPECT_NE(obs::ExplainJsonl(report).find("\"trip\""), std::string::npos);
  EXPECT_NE(obs::ExplainText(report).find("GUARD TRIP"),
            std::string::npos);
}

TEST(ExplainTextTest, RendersParamsAdvisorAndDrift) {
  obs::ExplainReport report;
  report.mode = "self";
  report.SetParam("gamma", "0.9");
  obs::AdvisorTrace trace;
  trace.method = "partenum";
  trace.sample_size = 10;
  trace.target_input_size = 100;
  obs::AdvisorCandidate candidate;
  candidate.label = "n1=2,n2=6";
  candidate.predicted_f2 = 240;
  candidate.chosen = true;
  trace.candidates = {candidate};
  obs::AttachAdvisorTrace(&report, trace);
  report.Actual("join.signatures", 100);
  std::string text = obs::ExplainText(report);
  EXPECT_NE(text.find("gamma = 0.9"), std::string::npos);
  EXPECT_NE(text.find("n1=2,n2=6"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos) << "chosen row marker";
  EXPECT_NE(text.find("join.signatures"), std::string::npos);
}

TEST(PlanExplainTest, JsonlIsDeterministicAndTimingFree) {
  SetCollection input = Workload(150, 93);
  auto scheme = MakeScheme(input, 0.7);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.7);
  auto first = relational::DbmsSelfJoin(input, *scheme, predicate);
  auto second = relational::DbmsSelfJoin(input, *scheme, predicate);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_FALSE(first->explain.ops.empty());
  EXPECT_EQ(first->explain.plan, "dbms_self");
  EXPECT_EQ(first->explain.Jsonl(), second->explain.Jsonl())
      << "plan EXPLAIN JSONL must be run-to-run byte-identical";
  EXPECT_EQ(first->explain.Jsonl().find("seconds"), std::string::npos);
  EXPECT_EQ(first->explain.Jsonl().find("runtime"), std::string::npos);
  // The human tree carries the runtime timings instead.
  EXPECT_NE(first->explain.Text().find("runtime"), std::string::npos);
  // Rows flow: SigGen's input is the collection, the final op emits the
  // result pairs.
  EXPECT_EQ(first->explain.ops.front().rows_in, input.size());
  EXPECT_EQ(first->explain.ops.back().rows_out, first->pairs.size());
}

TEST(PlanExplainTest, VariantTracksIntersectPlan) {
  SetCollection input = Workload(120, 94);
  auto scheme = MakeScheme(input, 0.7);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.7);
  auto hash = relational::DbmsSelfJoin(input, *scheme, predicate,
                                       relational::IntersectPlan::kHashJoin);
  auto index = relational::DbmsSelfJoin(
      input, *scheme, predicate,
      relational::IntersectPlan::kClusteredIndex);
  ASSERT_TRUE(hash.ok());
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(hash->explain.variant, "hash_join");
  EXPECT_EQ(index->explain.variant, "clustered_index");
  EXPECT_NE(hash->explain.Jsonl().find("GroupByCount"), std::string::npos);
  EXPECT_NE(index->explain.Jsonl().find("IndexIntersect"),
            std::string::npos);
  EXPECT_EQ(hash->pairs, index->pairs);
}

}  // namespace
}  // namespace ssjoin
