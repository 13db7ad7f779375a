// The in-memory and the spilled self-join plans must be observationally
// identical, and both exact: same pairs as the brute-force nested loop,
// and the same signature / collision / candidate / verification
// accounting as each other — for every scheme and workload shape.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/identity_scheme.h"
#include "baselines/nested_loop.h"
#include "baselines/prefix_filter.h"
#include "core/partenum_jaccard.h"
#include "core/ssjoin.h"
#include "data/generators.h"
#include "obs/explain.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace ssjoin {
namespace {

JoinResult RunSelfJoin(const SetCollection& input,
                       const SignatureScheme& scheme,
                       const Predicate& predicate, SpillPolicy spill) {
  JoinOptions options;
  options.spill.policy = spill;
  JoinResult result = Join(SelfJoinRequest(input, scheme, predicate, options));
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  return result;
}

void ExpectSameCounters(const JoinStats& a, const JoinStats& b,
                        const std::string& label) {
  EXPECT_EQ(a.signatures_r, b.signatures_r) << label;
  EXPECT_EQ(a.signatures_s, b.signatures_s) << label;
  EXPECT_EQ(a.signature_collisions, b.signature_collisions) << label;
  EXPECT_EQ(a.candidates, b.candidates) << label;
  EXPECT_EQ(a.results, b.results) << label;
  EXPECT_EQ(a.false_positives, b.false_positives) << label;
  EXPECT_EQ(a.bitmap_filter_checked, b.bitmap_filter_checked) << label;
  EXPECT_EQ(a.bitmap_filter_pruned, b.bitmap_filter_pruned) << label;
}

// Sorted vs forced-spill vs the nested-loop oracle.
void ExpectEquivalent(const SetCollection& input,
                      const SignatureScheme& scheme,
                      const Predicate& predicate, const std::string& label) {
  JoinResult sorted =
      RunSelfJoin(input, scheme, predicate, SpillPolicy::kDisabled);
  JoinResult spilled =
      RunSelfJoin(input, scheme, predicate, SpillPolicy::kForced);
  EXPECT_EQ(sorted.pairs, NestedLoopSelfJoin(input, predicate)) << label;
  EXPECT_EQ(sorted.stats.results, sorted.pairs.size()) << label;
  EXPECT_EQ(sorted.pairs, spilled.pairs) << label;
  ExpectSameCounters(sorted.stats, spilled.stats, label + " spilled");
  EXPECT_EQ(sorted.stats.spill_partitions, 0u) << label;
  EXPECT_GT(spilled.stats.spill_partitions, 0u) << label;
}

TEST(PlanEquivalenceTest, MatchesNestedLoopWithIdentityScheme) {
  Rng rng(314);
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < 200; ++i) {
    sets.push_back(SampleWithoutReplacement(150, 2 + rng.Uniform(10), rng));
  }
  for (int i = 0; i < 60; ++i) sets.push_back(sets[rng.Uniform(200)]);
  SetCollection input = SetCollection::FromVectors(sets);
  IdentityScheme scheme;
  JaccardPredicate predicate(0.7);
  ExpectEquivalent(input, scheme, predicate, "identity");
}

TEST(PlanEquivalenceTest, MatchesNestedLoopWithPartEnum) {
  AddressOptions options;
  options.num_strings = 400;
  options.duplicate_fraction = 0.2;
  WordTokenizer tokenizer;
  SetCollection input =
      tokenizer.TokenizeAll(GenerateAddressStrings(options));
  for (double gamma : {0.8, 0.9}) {
    PartEnumJaccardParams params;
    params.gamma = gamma;
    params.max_set_size = input.max_set_size();
    auto scheme = PartEnumJaccardScheme::Create(params);
    ASSERT_TRUE(scheme.ok());
    JaccardPredicate predicate(gamma);
    ExpectEquivalent(input, *scheme, predicate,
                     "partenum gamma=" + std::to_string(gamma));
  }
}

TEST(PlanEquivalenceTest, MatchesNestedLoopWithPrefixFilter) {
  DblpOptions options;
  options.num_strings = 350;
  options.duplicate_fraction = 0.15;
  WordTokenizer tokenizer;
  SetCollection input =
      tokenizer.TokenizeAll(GenerateDblpStrings(options));
  auto predicate = std::make_shared<JaccardPredicate>(0.8);
  auto scheme = PrefixFilterScheme::Create(predicate, input);
  ASSERT_TRUE(scheme.ok());
  ExpectEquivalent(input, *scheme, *predicate, "prefix-filter");
}

TEST(PlanEquivalenceTest, EmptyInput) {
  SetCollection empty;
  IdentityScheme scheme;
  JaccardPredicate predicate(0.9);
  for (SpillPolicy spill : {SpillPolicy::kDisabled, SpillPolicy::kForced}) {
    JoinResult result = RunSelfJoin(empty, scheme, predicate, spill);
    EXPECT_TRUE(result.pairs.empty());
    EXPECT_EQ(result.stats.F2(), 0u);
  }
}

TEST(PlanEquivalenceTest, DuplicateHeavyWorkload) {
  // Many identical sets — the stress case for candidate deduplication.
  std::vector<std::vector<ElementId>> sets(50, {1, 2, 3, 4, 5});
  sets.resize(60, {6, 7, 8});
  SetCollection input = SetCollection::FromVectors(sets);
  IdentityScheme scheme;
  JaccardPredicate predicate(1.0);
  JoinResult result =
      RunSelfJoin(input, scheme, predicate, SpillPolicy::kDisabled);
  // C(50,2) + C(10,2) identical pairs.
  EXPECT_EQ(result.pairs.size(), 50u * 49 / 2 + 10u * 9 / 2);
  ExpectEquivalent(input, scheme, predicate, "duplicate-heavy");
}

// ExecutionMode::kPipelinedSelfJoin is an alias: Join() runs it as
// kSelfJoin, so pairs, stats, validation and the EXPLAIN report (mode
// and operator chain included) are those of the self-join.
TEST(PlanEquivalenceTest, PipelinedModeRunsTheSelfJoinPlan) {
  AddressOptions data;
  data.num_strings = 300;
  data.duplicate_fraction = 0.2;
  WordTokenizer tokenizer;
  SetCollection input = tokenizer.TokenizeAll(GenerateAddressStrings(data));
  PartEnumJaccardParams params;
  params.gamma = 0.8;
  params.max_set_size = input.max_set_size();
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.8);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::ExplainReport self_explain;
    obs::ExplainReport alias_explain;
    JoinRequest self = SelfJoinRequest(input, *scheme, predicate);
    self.options.num_threads = threads;
    self.options.spill.policy = SpillPolicy::kDisabled;
    JoinRequest alias = self;
    alias.mode = ExecutionMode::kPipelinedSelfJoin;
    self.options.explain = &self_explain;
    alias.options.explain = &alias_explain;

    JoinResult expected = Join(self);
    JoinResult actual = Join(alias);
    ASSERT_TRUE(actual.status.ok()) << actual.status.ToString();
    ASSERT_GT(expected.stats.results, 0u);
    EXPECT_EQ(actual.pairs, expected.pairs);
    ExpectSameCounters(actual.stats, expected.stats, "alias");
    EXPECT_EQ(actual.stats.spill_partitions, 0u);

    EXPECT_EQ(alias_explain.mode, "self");
    std::vector<std::string> chain;
    for (const obs::PlanOp& op : alias_explain.plan) chain.push_back(op.op);
    EXPECT_EQ(chain,
              (std::vector<std::string>{"SigGen", "CandidateGen",
                                        "BitmapFilter", "Verify",
                                        "DedupEmit"}));
    EXPECT_EQ(obs::ExplainJsonl(alias_explain),
              obs::ExplainJsonl(self_explain));
  }

  // Validation sees the self-join too: a foreign right input is refused
  // with the self-join message, by Validate() and Join() alike.
  SetCollection other = SetCollection::FromVectors({{1, 2}, {3}});
  JoinRequest foreign = SelfJoinRequest(input, *scheme, predicate);
  foreign.mode = ExecutionMode::kPipelinedSelfJoin;
  foreign.right = &other;
  const std::string message =
      "self-join modes take a single input; JoinRequest::right must be "
      "null or alias left";
  EXPECT_EQ(foreign.Validate().message(), message);
  JoinResult refused = Join(foreign);
  EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.status.message(), message);
}

}  // namespace
}  // namespace ssjoin
