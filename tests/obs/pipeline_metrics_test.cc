// Per-operator pipeline metrics (core/pipeline/operator.h +
// obs/join_telemetry.h): the pipeline.<op>.rows_in / rows_out counters
// are kStable — exactly equal at any thread count and spill mode for the
// same (input, mode) — the runtime batches/ns counters exist without
// leaking into the stable export, and every JoinStats seconds field is
// exactly the sum of its operators' pipeline.<op>.ns. Runs under the
// `obs` ctest label so the TSan CI job covers the instrument + heartbeat
// interleaving too.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/partenum_jaccard.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "data/generators.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "text/tokenizer.h"

namespace ssjoin::obs {
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

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct PipelineCounters {
  std::map<std::string, uint64_t> stable_rows;  // .rows_in / .rows_out
  std::map<std::string, uint64_t> runtime;      // .batches / .ns
  uint64_t results = 0;
  uint64_t candidates = 0;
  JoinStats stats;
};

PipelineCounters RunAndCollect(const SetCollection& input,
                               const PartEnumJaccardScheme& scheme,
                               const JaccardPredicate& predicate,
                               size_t threads, SpillPolicy spill) {
  MetricsRegistry metrics;
  JoinRequest request;
  request.left = &input;
  request.scheme = &scheme;
  request.predicate = &predicate;
  request.options.num_threads = threads;
  request.options.metrics = &metrics;
  request.options.spill.policy = spill;
  JoinResult result = Join(request);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();

  PipelineCounters out;
  out.results = result.stats.results;
  out.candidates = result.stats.candidates;
  out.stats = result.stats;
  for (const MetricRecord& record : metrics.Snapshot()) {
    if (record.name.rfind("pipeline.", 0) != 0) continue;
    if (EndsWith(record.name, ".rows_in") ||
        EndsWith(record.name, ".rows_out")) {
      EXPECT_EQ(record.stability, Stability::kStable) << record.name;
      out.stable_rows[record.name] = record.counter_value;
    } else {
      EXPECT_EQ(record.stability, Stability::kRuntime) << record.name;
      out.runtime[record.name] = record.counter_value;
    }
  }
  return out;
}

class PipelineMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    input_ = Workload(400, 81);
    PartEnumJaccardParams params;
    params.gamma = 0.85;
    params.max_set_size = input_.max_set_size();
    auto scheme = PartEnumJaccardScheme::Create(params);
    ASSERT_TRUE(scheme.ok());
    scheme_.emplace(std::move(*scheme));
  }

  SetCollection input_;
  std::optional<PartEnumJaccardScheme> scheme_;
  JaccardPredicate predicate_{0.85};
};

TEST_F(PipelineMetricsTest, RowCountersExactlyEqualAcrossThreadCounts) {
  PipelineCounters serial =
      RunAndCollect(input_, *scheme_, predicate_, 1, SpillPolicy::kDisabled);
  ASSERT_FALSE(serial.stable_rows.empty());
  for (size_t threads : {2u, 4u}) {
    PipelineCounters parallel = RunAndCollect(input_, *scheme_, predicate_,
                                              threads, SpillPolicy::kDisabled);
    EXPECT_EQ(serial.stable_rows, parallel.stable_rows)
        << "threads=" << threads;
    EXPECT_EQ(serial.results, parallel.results);
  }
}

TEST_F(PipelineMetricsTest, RowCountersExactlyEqualUnderForcedSpill) {
  PipelineCounters serial =
      RunAndCollect(input_, *scheme_, predicate_, 1, SpillPolicy::kForced);
  ASSERT_FALSE(serial.stable_rows.empty());
  PipelineCounters parallel =
      RunAndCollect(input_, *scheme_, predicate_, 4, SpillPolicy::kForced);
  EXPECT_EQ(serial.stable_rows, parallel.stable_rows);
  EXPECT_EQ(serial.results, parallel.results);
}

// The JoinStats seconds field each operator's self-time feeds
// (core/ssjoin.h); dedup_emit feeds none.
double JoinStats::*FeedOf(std::string_view op) {
  if (op == "siggen") return &JoinStats::siggen_seconds;
  if (op == "candgen" || op == "spill_partition") {
    return &JoinStats::candpair_seconds;
  }
  if (op == "bitmap_filter" || op == "verify") {
    return &JoinStats::postfilter_seconds;
  }
  return nullptr;
}

TEST_F(PipelineMetricsTest, CountersTieOutToJoinStats) {
  struct Plan {
    const char* name;
    SpillPolicy spill;
    const char* source;  // the chain's source operator
  };
  for (const Plan& plan :
       {Plan{"sorted", SpillPolicy::kDisabled, "siggen"},
        Plan{"spilled", SpillPolicy::kForced, "spill_partition"}}) {
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(plan.name) +
                   " threads=" + std::to_string(threads));
      PipelineCounters c = RunAndCollect(input_, *scheme_, predicate_,
                                         threads, plan.spill);
      ASSERT_TRUE(c.runtime.count(std::string("pipeline.") + plan.source +
                                  ".ns"));
      // Each seconds field is derived from the ledger, never timed on
      // its own: the sum of its operators' self-time.
      JoinStats derived;
      for (const auto& [name, value] : c.runtime) {
        if (!EndsWith(name, ".ns")) continue;
        std::string op = name.substr(9, name.size() - 9 - 3);
        if (double JoinStats::*feed = FeedOf(op)) {
          derived.*feed += static_cast<double>(value) / 1e9;
        }
      }
      EXPECT_DOUBLE_EQ(c.stats.siggen_seconds, derived.siggen_seconds);
      EXPECT_DOUBLE_EQ(c.stats.candpair_seconds, derived.candpair_seconds);
      EXPECT_DOUBLE_EQ(c.stats.postfilter_seconds,
                       derived.postfilter_seconds);
      EXPECT_GT(c.stats.candpair_seconds, 0.0);
      EXPECT_GT(c.stats.postfilter_seconds, 0.0);
      if (std::string_view(plan.source) != "siggen") {
        // The spilled source does SigGen and CandPair together; its
        // whole self-time is CandPair.
        EXPECT_EQ(c.stats.siggen_seconds, 0.0);
      }
    }
  }

  PipelineCounters c =
      RunAndCollect(input_, *scheme_, predicate_, 1, SpillPolicy::kDisabled);
  // The verify operator consumes every deduplicated candidate and emits
  // every result; the emit operator passes the results through.
  ASSERT_TRUE(c.stable_rows.count("pipeline.verify.rows_out"));
  EXPECT_EQ(c.stable_rows["pipeline.verify.rows_out"], c.results);
  ASSERT_TRUE(c.stable_rows.count("pipeline.siggen.rows_in"));
  EXPECT_EQ(c.stable_rows["pipeline.siggen.rows_in"], input_.size());
  // Runtime detail exists for every instrumented operator (one batches
  // and one ns counter per rows_out counter).
  size_t rows_out_counters = 0;
  for (const auto& [name, value] : c.stable_rows) {
    rows_out_counters += EndsWith(name, ".rows_out");
  }
  size_t ns_counters = 0;
  for (const auto& [name, value] : c.runtime) {
    ns_counters += EndsWith(name, ".ns");
  }
  EXPECT_EQ(rows_out_counters, ns_counters);
}

TEST_F(PipelineMetricsTest, RuntimeCountersStayOutOfStableExport) {
  MetricsRegistry metrics;
  JoinRequest request;
  request.left = &input_;
  request.scheme = &*scheme_;
  request.predicate = &predicate_;
  request.options.metrics = &metrics;
  JoinResult result = Join(request);
  ASSERT_TRUE(result.status.ok());
  std::string stable = MetricsJsonl(metrics);
  // Under SSJOIN_SPILL=force the source operator is spill_partition.
  const std::string source = result.stats.spill_partitions > 0
                                 ? "pipeline.spill_partition"
                                 : "pipeline.siggen";
  EXPECT_NE(stable.find(source + ".rows_out"), std::string::npos);
  EXPECT_EQ(stable.find(source + ".batches"), std::string::npos);
  EXPECT_EQ(stable.find(".ns\""), std::string::npos);
}

}  // namespace
}  // namespace ssjoin::obs
