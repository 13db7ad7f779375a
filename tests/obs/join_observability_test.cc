// The observability determinism suite (DESIGN.md Section 8) plus the
// Join() facade contract:
//
//   * the deterministic JSONL trace/metrics exports must be
//     byte-identical for num_threads 1 and 4, for every execution mode;
//   * every plan operator opens one kStable span named by its tag under
//     the join root — with a tracer alone, no registry needed — and the
//     runtime samples nest under the operator that ran them;
//   * a guard trip must surface as a span event, a root-span attribute,
//     and a guard.trips.<reason> counter;
//   * the facade must reproduce the legacy entry points exactly and
//     reject malformed requests with InvalidArgument.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/execution_guard.h"
#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "core/string_join.h"
#include "data/generators.h"
#include "obs/explain.h"
#include "obs/export.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/sql_ssjoin.h"
#include "text/tokenizer.h"
#include "util/temp_dir.h"

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

// Runs `request` (with sinks attached) and returns the concatenated
// deterministic JSONL exports.
std::string DeterministicExport(JoinRequest request, size_t threads) {
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  request.options.num_threads = threads;
  request.options.tracer = &tracer;
  request.options.metrics = &metrics;
  JoinResult result = Join(request);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  return obs::TraceJsonl(tracer) + obs::MetricsJsonl(metrics);
}

TEST(ObsDeterminismTest, SelfJoinExportIsThreadCountInvariant) {
  SetCollection input = Workload(400, 51);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  JoinRequest request;
  request.left = &input;
  request.scheme = &*scheme;
  request.predicate = &predicate;
  request.mode = ExecutionMode::kSelfJoin;

  std::string serial = DeterministicExport(request, 1);
  std::string parallel = DeterministicExport(request, 4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
  // The stable skeleton: join root plus one span per operator. Under
  // SSJOIN_SPILL=force the join spills, and spill_partition replaces the
  // two source operators.
  EXPECT_NE(serial.find("\"name\":\"join\""), std::string::npos);
  const bool spilled =
      serial.find("\"spill\":\"forced\"") != std::string::npos;
  std::vector<const char*> ops = {"bitmap_filter", "verify", "dedup_emit"};
  if (spilled) {
    ops.push_back("spill_partition");
  } else {
    ops.insert(ops.end(), {"siggen", "candgen"});
  }
  for (const char* op : ops) {
    EXPECT_NE(serial.find(std::string("\"name\":\"") + op + "\""),
              std::string::npos)
        << op;
  }
  // No wall-clock leakage into the deterministic stream.
  EXPECT_EQ(serial.find("seconds"), std::string::npos);
  EXPECT_EQ(serial.find("_us"), std::string::npos);
}

TEST(ObsDeterminismTest, BinaryJoinExportIsThreadCountInvariant) {
  SetCollection r = Workload(300, 52);
  SetCollection s = Workload(250, 53);
  auto scheme = MakeScheme(r, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  JoinRequest request;
  request.left = &r;
  request.right = &s;
  request.scheme = &*scheme;
  request.predicate = &predicate;
  request.mode = ExecutionMode::kBinaryJoin;

  std::string serial = DeterministicExport(request, 1);
  EXPECT_EQ(serial, DeterministicExport(request, 4));
  EXPECT_NE(serial.find("\"mode\":\"binary\""), std::string::npos);
  EXPECT_NE(serial.find("input_sets_r"), std::string::npos);
}

TEST(ObsDeterminismTest, SpilledExportIsThreadCountInvariant) {
  SetCollection input = Workload(350, 54);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  JoinRequest request;
  request.left = &input;
  request.scheme = &*scheme;
  request.predicate = &predicate;
  request.mode = ExecutionMode::kSelfJoin;

  // The forced-spill export (operator spans + attrs + metrics) is
  // byte-identical across thread counts, whatever SSJOIN_SPILL says.
  request.options.spill.policy = SpillPolicy::kForced;
  std::string spilled = DeterministicExport(request, 1);
  EXPECT_EQ(spilled, DeterministicExport(request, 4));
  EXPECT_NE(spilled.find("\"mode\":\"self\""), std::string::npos);
  EXPECT_NE(spilled.find("\"name\":\"spill_partition\""),
            std::string::npos);
  EXPECT_EQ(spilled.find("\"name\":\"siggen\""), std::string::npos);
}

// A kAuto join whose memory budget is below its signature tables
// degrades inside its one pass: one join span, one join_start and one
// spill_degrade record, and one plan chain that keeps the abandoned
// in-memory stages' rows ahead of the spilled source. Each plan row
// agrees with its published pipeline.<tag>.rows_out counter.
TEST(ObsDeterminismTest, AutoSpillDegradesInOnePass) {
  SetCollection input = Workload(700, 71);
  auto scheme = MakeScheme(input, 0.8);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.8);
  ExecutionBudget budget;
  budget.memory_budget_bytes = size_t{64} << 10;
  ExecutionGuard guard(budget);
  auto dir = util::ScopedTempDir::Create();
  ASSERT_TRUE(dir.ok()) << dir.status().ToString();
  const std::string log_path = dir->path() + "/join.jsonl";
  obs::LoggerOptions log_options;
  log_options.min_level = obs::LogLevel::kDebug;
  auto logger = obs::Logger::Open(log_path, log_options);
  ASSERT_TRUE(logger.ok()) << logger.status().ToString();
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  obs::ExplainReport explain;

  JoinRequest request = SelfJoinRequest(input, *scheme, predicate);
  request.options.num_threads = 4;
  request.options.spill.policy = SpillPolicy::kAuto;
  request.options.guard = &guard;
  request.options.tracer = &tracer;
  request.options.metrics = &metrics;
  request.options.log = logger->get();
  request.options.explain = &explain;
  JoinResult result = Join(request);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_GT(result.stats.spill_partitions, 0u) << "the join must degrade";
  logger->reset();  // flushes and closes the log file

  size_t join_spans = 0;
  for (const obs::SpanRecord& span : tracer.Snapshot()) {
    if (span.name == "join") ++join_spans;
  }
  EXPECT_EQ(join_spans, 1u);

  std::ifstream log_file(log_path);
  ASSERT_TRUE(log_file.good()) << log_path;
  std::map<std::string, size_t> events;
  for (std::string line; std::getline(log_file, line);) {
    const std::string key = "\"event\":\"";
    size_t at = line.find(key);
    ASSERT_NE(at, std::string::npos) << line;
    at += key.size();
    ++events[line.substr(at, line.find('"', at) - at)];
  }
  EXPECT_EQ(events["join_start"], 1u);
  EXPECT_EQ(events["spill_degrade"], 1u);

  const std::vector<std::string> expected = {
      "siggen",        "candgen", "spill_partition",
      "bitmap_filter", "verify",  "dedup_emit"};
  std::vector<std::string> ops;
  for (const obs::PlanOp& row : explain.plan) {
    ops.push_back(row.op);
    EXPECT_EQ(row.rows_out,
              metrics.counter("pipeline." + row.op + ".rows_out").value())
        << row.op;
  }
  EXPECT_EQ(ops, expected);
}

// (name, parent name) of every kStable span, in creation order.
std::vector<std::pair<std::string, std::string>> StableSkeleton(
    const obs::Tracer& tracer) {
  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  std::vector<std::pair<std::string, std::string>> skeleton;
  for (const obs::SpanRecord& span : spans) {
    if (span.stability != obs::Stability::kStable) continue;
    skeleton.emplace_back(span.name, span.parent == obs::kNoSpan
                                         ? ""
                                         : spans[span.parent - 1].name);
  }
  return skeleton;
}

// A tracer alone (no MetricsRegistry) still gets one kStable span per
// operator, each carrying its stable row totals, and the skeleton is
// identical at 1 and 4 threads for every plan shape.
TEST(ObsDeterminismTest, TracerOnlyRunEmitsOperatorSkeleton) {
  SetCollection input = Workload(350, 62);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);
  struct Plan {
    SpillPolicy spill;
    std::vector<std::string> chain;
  };
  const std::vector<std::string> tail = {"bitmap_filter", "verify",
                                         "dedup_emit"};
  for (Plan plan :
       {Plan{SpillPolicy::kDisabled, {"siggen", "candgen"}},
        Plan{SpillPolicy::kForced, {"spill_partition"}}}) {
    plan.chain.insert(plan.chain.end(), tail.begin(), tail.end());
    SCOPED_TRACE(plan.chain.front());
    std::vector<std::pair<std::string, std::string>> expected = {
        {"join", ""}};
    for (const std::string& op : plan.chain) expected.emplace_back(op, "join");

    std::string jsonl[2];
    for (size_t threads : {1u, 4u}) {
      obs::Tracer tracer;
      JoinRequest request = SelfJoinRequest(input, *scheme, predicate);
      request.options.spill.policy = plan.spill;
      request.options.num_threads = threads;
      request.options.tracer = &tracer;
      JoinResult result = Join(request);
      ASSERT_TRUE(result.status.ok()) << result.status.ToString();
      EXPECT_EQ(StableSkeleton(tracer), expected) << "threads=" << threads;
      for (const obs::SpanRecord& span : tracer.Snapshot()) {
        if (span.stability != obs::Stability::kStable || span.name == "join") {
          continue;
        }
        ASSERT_EQ(span.attrs.size(), 2u) << span.name;
        EXPECT_EQ(span.attrs[0].first, "rows_in");
        EXPECT_EQ(span.attrs[1].first, "rows_out");
        if (span.name == "dedup_emit") {
          EXPECT_EQ(span.attrs[1].second.u, result.pairs.size());
        }
      }
      jsonl[threads == 1 ? 0 : 1] = obs::TraceJsonl(tracer);
    }
    EXPECT_EQ(jsonl[0], jsonl[1]);
  }
}

// Runtime samples nest under the span of the operator that ran them:
// shard spans under candgen, verify_chunk spans (guarded runs) under
// verify.
TEST(ObsDeterminismTest, SamplesNestUnderTheirOperatorSpan) {
  SetCollection input = Workload(400, 63);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);
  ExecutionGuard guard(ExecutionBudget{});

  obs::Tracer tracer;
  JoinRequest request = SelfJoinRequest(input, *scheme, predicate);
  request.options.spill.policy = SpillPolicy::kDisabled;
  request.options.num_threads = 4;
  request.options.tracer = &tracer;
  request.options.guard = &guard;
  JoinResult result = Join(request);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  std::map<std::string, std::set<std::string>> parents;
  for (const obs::SpanRecord& span : spans) {
    if (span.stability != obs::Stability::kRuntime) continue;
    ASSERT_NE(span.parent, obs::kNoSpan) << span.name;
    parents[span.name].insert(spans[span.parent - 1].name);
  }
  using Parents = std::set<std::string>;
  EXPECT_EQ(parents["shard"], Parents{"candgen"});
  EXPECT_EQ(parents["verify_chunk"], Parents{"verify"});
}

TEST(ObsDeterminismTest, GuardTripSurfacesEverywhere) {
  SetCollection input = Workload(300, 55);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  CancellationToken token;
  token.RequestCancel();  // trips at the first checkpoint
  ExecutionGuard guard(ExecutionBudget{}, token);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  JoinRequest request;
  request.left = &input;
  request.scheme = &*scheme;
  request.predicate = &predicate;
  request.options.guard = &guard;
  request.options.tracer = &tracer;
  request.options.metrics = &metrics;

  JoinResult result = Join(request);
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);

  // Counter: guard.trips.cancelled == 1.
  EXPECT_EQ(metrics.counter("guard.trips.cancelled").value(), 1u);

  // Span event + attribute on the root span.
  auto spans = tracer.Snapshot();
  ASSERT_FALSE(spans.empty());
  const obs::SpanRecord& root = spans[0];
  EXPECT_EQ(root.name, "join");
  bool event_found = false;
  for (const obs::SpanEvent& event : root.events) {
    if (event.name == "guard_trip" && event.detail == "cancelled") {
      event_found = true;
    }
  }
  EXPECT_TRUE(event_found);
  bool attr_found = false;
  for (const auto& [key, value] : root.attrs) {
    if (key == "trip" && value.s == "cancelled") attr_found = true;
  }
  EXPECT_TRUE(attr_found);
}

TEST(JoinFacadeTest, BuildersMatchExplicitRequests) {
  SetCollection input = Workload(300, 56);
  SetCollection other = Workload(250, 57);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  {
    JoinRequest request;
    request.left = &input;
    request.scheme = &*scheme;
    request.predicate = &predicate;
    JoinResult facade = Join(request);
    JoinResult legacy = Join(SelfJoinRequest(input, *scheme, predicate));
    EXPECT_EQ(facade.pairs, legacy.pairs);
    EXPECT_EQ(facade.stats.candidates, legacy.stats.candidates);
    EXPECT_EQ(facade.stats.results, legacy.stats.results);
  }
  {
    JoinRequest request;
    request.left = &input;
    request.right = &other;
    request.scheme = &*scheme;
    request.predicate = &predicate;
    request.mode = ExecutionMode::kBinaryJoin;
    JoinResult facade = Join(request);
    JoinResult legacy = Join(BinaryJoinRequest(input, other, *scheme, predicate));
    EXPECT_EQ(facade.pairs, legacy.pairs);
    EXPECT_EQ(facade.stats.results, legacy.stats.results);
  }
}

TEST(JoinFacadeTest, RejectsMalformedRequests) {
  SetCollection input = Workload(50, 58);
  SetCollection other = Workload(40, 59);
  auto scheme = MakeScheme(input, 0.85);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.85);

  JoinRequest valid;
  valid.left = &input;
  valid.scheme = &*scheme;
  valid.predicate = &predicate;
  ASSERT_TRUE(Join(valid).status.ok());

  {
    JoinRequest request = valid;
    request.left = nullptr;
    EXPECT_EQ(Join(request).status.code(), StatusCode::kInvalidArgument);
  }
  {
    JoinRequest request = valid;
    request.scheme = nullptr;
    EXPECT_EQ(Join(request).status.code(), StatusCode::kInvalidArgument);
  }
  {
    JoinRequest request = valid;
    request.predicate = nullptr;
    EXPECT_EQ(Join(request).status.code(), StatusCode::kInvalidArgument);
  }
  {
    // A distinct right side on a self-join is a contract violation...
    JoinRequest request = valid;
    request.right = &other;
    EXPECT_EQ(Join(request).status.code(), StatusCode::kInvalidArgument);
    // ...but right == left is tolerated (a self-join spelled binary-ish).
    request.right = &input;
    EXPECT_TRUE(Join(request).status.ok());
  }
  {
    JoinRequest request = valid;
    request.mode = ExecutionMode::kBinaryJoin;
    request.right = nullptr;
    EXPECT_EQ(Join(request).status.code(), StatusCode::kInvalidArgument);
  }
}

TEST(JoinFacadeTest, ExecutionModeNames) {
  EXPECT_EQ(ExecutionModeName(ExecutionMode::kSelfJoin), "self");
  EXPECT_EQ(ExecutionModeName(ExecutionMode::kBinaryJoin), "binary");
}

// A stage's pipeline.<tag><suffix> counter in `metrics` (0 when the
// stage never ran).
uint64_t StageCounter(obs::MetricsRegistry& metrics, std::string_view tag,
                      std::string_view suffix) {
  return metrics.counter("pipeline." + std::string(tag) + std::string(suffix))
      .value();
}

// A stage's time as its JoinStats seconds field receives it.
double StageSeconds(obs::MetricsRegistry& metrics, std::string_view tag) {
  return static_cast<double>(StageCounter(metrics, tag, ".ns")) / 1e9;
}

bool HasSpan(const std::string& jsonl, std::string_view name) {
  return jsonl.find("\"name\":\"" + std::string(name) + "\"") !=
         std::string::npos;
}

TEST(ObsIntegrationTest, StringJoinEmitsPhaseSkeleton) {
  std::vector<std::string> strings = {"washington", "woshington",
                                      "seattle", "seattlle", "portland"};
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  StringJoinOptions options;
  options.edit_threshold = 1;
  options.tracer = &tracer;
  options.metrics = &metrics;
  auto result = StringSimilaritySelfJoin(strings, options);
  ASSERT_TRUE(result.ok());
  std::string jsonl = obs::TraceJsonl(tracer);
  EXPECT_NE(jsonl.find("\"mode\":\"string_self\""), std::string::npos);
  // The wrapper's two steps are stage spans named by their tags.
  EXPECT_TRUE(HasSpan(jsonl, "qgram"));
  EXPECT_TRUE(HasSpan(jsonl, "edit_check"));
  EXPECT_FALSE(HasSpan(jsonl, "SigGen"));
  EXPECT_FALSE(HasSpan(jsonl, "PostFilter"));
  // The hamming join over the q-gram bags runs through Join(), so its
  // stage spans land in the same tracer. Under SSJOIN_SPILL=force the
  // join spills, and spill_partition replaces the two source stages.
  EXPECT_TRUE(HasSpan(jsonl, "verify"));
  const bool spilled = jsonl.find("\"spill\":\"forced\"") != std::string::npos;
  if (!spilled) {
    EXPECT_TRUE(HasSpan(jsonl, "siggen"));
    EXPECT_TRUE(HasSpan(jsonl, "candgen"));
  } else {
    EXPECT_TRUE(HasSpan(jsonl, "spill_partition"));
  }

  // Rows chain through the stages: one bag per string into the join, the
  // join's pairs into the edit check, the matches out of it.
  EXPECT_EQ(StageCounter(metrics, "qgram", ".rows_in"), strings.size());
  EXPECT_EQ(StageCounter(metrics, "qgram", ".rows_out"), strings.size());
  if (!spilled) {
    EXPECT_EQ(StageCounter(metrics, "siggen", ".rows_in"), strings.size());
  }
  EXPECT_EQ(StageCounter(metrics, "edit_check", ".rows_in"),
            StageCounter(metrics, "dedup_emit", ".rows_out"));
  EXPECT_EQ(StageCounter(metrics, "edit_check", ".rows_out"),
            result->stats.results);
  EXPECT_EQ(result->stats.results, 2u);

  // Each seconds field is its stages' time: Join()'s stages plus the
  // wrapper's own (sums of doubles, hence NEAR).
  const JoinStats& stats = result->stats;
  EXPECT_NEAR(stats.siggen_seconds,
              StageSeconds(metrics, "qgram") + StageSeconds(metrics, "siggen"),
              1e-12);
  EXPECT_NEAR(stats.candpair_seconds,
              StageSeconds(metrics, "candgen") +
                  StageSeconds(metrics, "spill_partition"),
              1e-12);
  EXPECT_NEAR(stats.postfilter_seconds,
              StageSeconds(metrics, "bitmap_filter") +
                  StageSeconds(metrics, "verify") +
                  StageSeconds(metrics, "edit_check"),
              1e-12);
  EXPECT_GT(StageSeconds(metrics, "qgram"), 0.0);
  EXPECT_GT(StageSeconds(metrics, "edit_check"), 0.0);
}

TEST(ObsIntegrationTest, DbmsPlanPublishesRowCounts) {
  SetCollection input = Workload(150, 61);
  // A permissive threshold so the tiny workload yields output rows —
  // this test is about the counters, not the join selectivity.
  auto scheme = MakeScheme(input, 0.6);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.6);

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  auto result = relational::DbmsSelfJoin(
      input, *scheme, predicate, relational::IntersectPlan::kHashJoin,
      /*guard=*/nullptr, &tracer, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::string jsonl = obs::TraceJsonl(tracer);
  EXPECT_NE(jsonl.find("\"mode\":\"dbms_self\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"plan\":\"hash_join\""), std::string::npos);
  // The plan's three steps are stage spans named by their tags.
  for (std::string_view tag : {"siggen", "candgen", "verify"}) {
    EXPECT_TRUE(HasSpan(jsonl, tag)) << tag;
  }
  EXPECT_FALSE(HasSpan(jsonl, "SigGen"));
  EXPECT_FALSE(HasSpan(jsonl, "CandPair"));
  EXPECT_FALSE(HasSpan(jsonl, "PostFilter"));

  // The stage rows equal the plan EXPLAIN's: siggen is its first op,
  // candgen spans HashJoin -> Distinct, verify the rest.
  const std::vector<relational::PlanOpExplain>& ops = result->explain.ops;
  ASSERT_EQ(ops.size(), 6u);
  EXPECT_EQ(ops[0].op, "siggen");
  EXPECT_EQ(ops[1].op, "HashJoin");
  EXPECT_EQ(ops[2].op, "Distinct");
  EXPECT_EQ(StageCounter(metrics, "siggen", ".rows_in"), ops[0].rows_in);
  EXPECT_EQ(StageCounter(metrics, "siggen", ".rows_out"), ops[0].rows_out);
  EXPECT_EQ(StageCounter(metrics, "candgen", ".rows_in"), ops[1].rows_in);
  EXPECT_EQ(StageCounter(metrics, "candgen", ".rows_out"), ops[2].rows_out);
  EXPECT_EQ(StageCounter(metrics, "verify", ".rows_in"), ops[3].rows_in);
  EXPECT_EQ(StageCounter(metrics, "verify", ".rows_out"), ops[5].rows_out);
  EXPECT_EQ(StageCounter(metrics, "siggen", ".rows_in"), input.size());
  EXPECT_GT(StageCounter(metrics, "siggen", ".rows_out"), 0u);
  EXPECT_EQ(StageCounter(metrics, "candgen", ".rows_out"),
            result->stats.candidates);
  EXPECT_GT(StageCounter(metrics, "verify", ".rows_out"), 0u);
  EXPECT_EQ(StageCounter(metrics, "verify", ".rows_out"),
            result->pairs.size());

  // Each seconds field is exactly its one stage's time.
  const JoinStats& stats = result->stats;
  EXPECT_DOUBLE_EQ(stats.siggen_seconds, StageSeconds(metrics, "siggen"));
  EXPECT_DOUBLE_EQ(stats.candpair_seconds, StageSeconds(metrics, "candgen"));
  EXPECT_DOUBLE_EQ(stats.postfilter_seconds,
                   StageSeconds(metrics, "verify"));
  EXPECT_DOUBLE_EQ(ops[0].seconds, stats.siggen_seconds);
}

}  // namespace
}  // namespace ssjoin
