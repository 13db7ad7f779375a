#include "baselines/prefix_filter.h"

#include <gtest/gtest.h>

#include <limits>

#include "baselines/nested_loop.h"
#include "core/ssjoin.h"
#include "util/random.h"

namespace ssjoin {
namespace {

SetCollection RandomCollection(uint64_t seed, int base = 120, int dups = 50) {
  Rng rng(seed);
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < base; ++i) {
    sets.push_back(SampleWithoutReplacement(300, 3 + rng.Uniform(20), rng));
  }
  for (int i = 0; i < dups; ++i) {
    std::vector<ElementId> dup = sets[rng.Uniform(base)];
    if (dup.size() > 3 && rng.Bernoulli(0.5)) dup.pop_back();
    sets.push_back(dup);
  }
  return SetCollection::FromVectors(sets);
}

TEST(PrefixFilterTest, PaperSectionThreeExample) {
  // Section 3.3: jaccard 0.8, all sets of size 20 => the prefix is the
  // three lowest-frequency elements (|r ∩ s| >= 18 forced).
  Rng rng(10);
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < 50; ++i) {
    sets.push_back(SampleWithoutReplacement(500, 20, rng));
  }
  SetCollection input = SetCollection::FromVectors(sets);
  auto predicate = std::make_shared<JaccardPredicate>(0.8);
  PrefixFilterParams params;
  params.size_filter = false;
  auto scheme = PrefixFilterScheme::Create(predicate, input, params);
  ASSERT_TRUE(scheme.ok());
  // All sets have size 20, so the only joinable partner size present is
  // 20: required overlap 0.8/1.8*40 = 17.8 -> 18, prefix length
  // 20 - 18 + 1 = 3 — exactly the paper's "three elements with the
  // smallest frequencies".
  EXPECT_EQ(scheme->PrefixLength(20), 3u);
  std::vector<Signature> sigs =
      scheme->Signatures(input.set(0));
  EXPECT_EQ(sigs.size(), 3u);
}

TEST(PrefixFilterTest, PrefixContainsRarestElements) {
  // One very frequent element everywhere; prefix must avoid it.
  std::vector<std::vector<ElementId>> sets;
  for (ElementId i = 0; i < 30; ++i) {
    sets.push_back({999, i * 2, i * 2 + 1});
  }
  SetCollection input = SetCollection::FromVectors(sets);
  auto predicate = std::make_shared<JaccardPredicate>(0.9);
  PrefixFilterParams params;
  params.size_filter = false;
  auto scheme = PrefixFilterScheme::Create(predicate, input, params);
  ASSERT_TRUE(scheme.ok());
  // size 3, gamma 0.9: joinable partner sizes only 3 (2.7..3.33); required
  // overlap 0.9/1.9*6 = 2.84 -> 3 => prefix length 1: the rarest element.
  EXPECT_EQ(scheme->PrefixLength(3), 1u);
  std::vector<Signature> sigs = scheme->Signatures(input.set(0));
  ASSERT_EQ(sigs.size(), 1u);
  // Element 999 has rank worse than the unique elements.
  EXPECT_GT(scheme->Rank(999), scheme->Rank(0));
  EXPECT_NE(sigs[0], static_cast<Signature>(999));
}

class PrefixFilterExactnessTest : public ::testing::TestWithParam<double> {
};

TEST_P(PrefixFilterExactnessTest, ExactWithAndWithoutSizeFilter) {
  double gamma = GetParam();
  SetCollection input = RandomCollection(static_cast<uint64_t>(gamma * 97));
  auto predicate = std::make_shared<JaccardPredicate>(gamma);
  std::vector<SetPair> expected = NestedLoopSelfJoin(input, *predicate);
  ASSERT_GT(expected.size(), 0u) << "vacuous test";

  for (bool size_filter : {false, true}) {
    PrefixFilterParams params;
    params.size_filter = size_filter;
    auto scheme = PrefixFilterScheme::Create(predicate, input, params);
    ASSERT_TRUE(scheme.ok());
    JoinResult result = Join(SelfJoinRequest(input, *scheme, *predicate));
    EXPECT_EQ(result.pairs, expected)
        << "gamma=" << gamma << " size_filter=" << size_filter;
  }
}

INSTANTIATE_TEST_SUITE_P(Gammas, PrefixFilterExactnessTest,
                         ::testing::Values(0.6, 0.75, 0.8, 0.9, 0.95));

TEST(PrefixFilterTest, SizeFilterReducesCollisions) {
  SetCollection input = RandomCollection(42, 400, 100);
  auto predicate = std::make_shared<JaccardPredicate>(0.8);
  PrefixFilterParams with, without;
  with.size_filter = true;
  without.size_filter = false;
  auto scheme_with = PrefixFilterScheme::Create(predicate, input, with);
  auto scheme_without =
      PrefixFilterScheme::Create(predicate, input, without);
  ASSERT_TRUE(scheme_with.ok());
  ASSERT_TRUE(scheme_without.ok());
  JoinResult r_with = Join(SelfJoinRequest(input, *scheme_with, *predicate));
  JoinResult r_without =
      Join(SelfJoinRequest(input, *scheme_without, *predicate));
  EXPECT_EQ(r_with.pairs, r_without.pairs);
  EXPECT_LE(r_with.stats.candidates, r_without.stats.candidates);
}

TEST(PrefixFilterTest, HammingPredicateSupported) {
  SetCollection input = RandomCollection(77, 100, 60);
  auto predicate = std::make_shared<HammingPredicate>(2);
  auto scheme = PrefixFilterScheme::Create(predicate, input);
  ASSERT_TRUE(scheme.ok());
  JoinResult result = Join(SelfJoinRequest(input, *scheme, *predicate));
  // Positive-overlap pairs only: with min set size 3 and k=2, any
  // joinable pair overlaps (|r|+|s|-2 >= 4 > 2 = max Hd-allowed misses).
  EXPECT_EQ(result.pairs, NestedLoopSelfJoin(input, *predicate));
}

TEST(PrefixFilterTest, RejectsZeroOverlapPredicates) {
  // Hamming k = 10 over sets of size 3: disjoint pairs can join, which
  // prefix filtering cannot cover.
  SetCollection input = SetCollection::FromVectors({{1, 2, 3}, {4, 5, 6}});
  auto predicate = std::make_shared<HammingPredicate>(10);
  auto scheme = PrefixFilterScheme::Create(predicate, input);
  EXPECT_FALSE(scheme.ok());
  PrefixFilterParams params;
  params.allow_zero_overlap_loss = true;
  EXPECT_TRUE(PrefixFilterScheme::Create(predicate, input, params).ok());
}

TEST(PrefixFilterTest, RejectsJoinableEmptySets) {
  // Two empty sets are at hamming distance 0 but have no prefix element
  // to collide on, so a join would silently miss them.
  SetCollection input = SetCollection::FromVectors(
      {{}, {}, {1, 2, 3, 4, 5, 6}, {1, 2, 3, 4, 5, 7}});
  auto predicate = std::make_shared<HammingPredicate>(1);
  auto scheme = PrefixFilterScheme::Create(predicate, input);
  ASSERT_FALSE(scheme.ok());
  EXPECT_EQ(scheme.status().code(), StatusCode::kInvalidArgument);
  SetCollection r = SetCollection::FromVectors({{}, {1, 2, 3, 4}});
  SetCollection s = SetCollection::FromVectors({{}, {5, 6, 7, 8}});
  EXPECT_FALSE(PrefixFilterScheme::Create(predicate, r, s).ok());

  PrefixFilterParams params;
  params.allow_zero_overlap_loss = true;
  auto lossy = PrefixFilterScheme::Create(predicate, input, params);
  ASSERT_TRUE(lossy.ok());
  EXPECT_EQ(lossy->PrefixLength(0), 0u);
  // A lone empty set joins nothing under hamming 1 here: accepted.
  SetCollection lone = SetCollection::FromVectors({{}, {1, 2, 3, 4}});
  EXPECT_TRUE(PrefixFilterScheme::Create(predicate, lone).ok());
}

TEST(PrefixFilterTest, EmptySetsGetNoSignatures) {
  SetCollection input = SetCollection::FromVectors({{}, {1, 2}});
  auto predicate = std::make_shared<JaccardPredicate>(0.8);
  auto scheme = PrefixFilterScheme::Create(predicate, input);
  ASSERT_TRUE(scheme.ok());
  EXPECT_TRUE(scheme->Signatures(input.set(0)).empty());
}

TEST(WeightedPrefixFilterTest, ExactForWeightedJaccard) {
  SetCollection input = RandomCollection(55, 150, 60);
  WeightFunction weights = [](ElementId e) {
    return 0.5 + static_cast<double>(e % 7);  // varied positive weights
  };
  double min_ws = std::numeric_limits<double>::infinity();
  for (SetId id = 0; id < input.size(); ++id) {
    double ws = WeightedSize(input.set(id), weights);
    if (ws > 0) min_ws = std::min(min_ws, ws);
  }
  for (double gamma : {0.7, 0.8, 0.9}) {
    WeightedJaccardPredicate predicate(gamma, weights);
    std::vector<SetPair> expected = NestedLoopSelfJoin(input, predicate);
    for (bool size_filter : {true, false}) {
      PrefixFilterParams params;
      params.size_filter = size_filter;
      auto scheme = WeightedPrefixFilterScheme::Create(gamma, weights,
                                                       input, min_ws,
                                                       params);
      ASSERT_TRUE(scheme.ok());
      JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
      EXPECT_EQ(result.pairs, expected)
          << "gamma=" << gamma << " size_filter=" << size_filter;
    }
  }
}

TEST(WeightedPrefixFilterTest, CreateValidation) {
  SetCollection input = SetCollection::FromVectors({{1, 2}});
  WeightFunction unit = [](ElementId) { return 1.0; };
  EXPECT_FALSE(
      WeightedPrefixFilterScheme::Create(0.0, unit, input, 1.0).ok());
  EXPECT_FALSE(
      WeightedPrefixFilterScheme::Create(0.8, nullptr, input, 1.0).ok());
  EXPECT_FALSE(
      WeightedPrefixFilterScheme::Create(0.8, unit, input, 0.0).ok());
  EXPECT_TRUE(
      WeightedPrefixFilterScheme::Create(0.8, unit, input, 1.0).ok());
}

TEST(WeightedPrefixFilterTest, CreateRejectsNanGamma) {
  SetCollection input = SetCollection::FromVectors({{1, 2}});
  WeightFunction unit = [](ElementId) { return 1.0; };
  auto scheme = WeightedPrefixFilterScheme::Create(
      std::numeric_limits<double>::quiet_NaN(), unit, input, 1.0);
  ASSERT_FALSE(scheme.ok());
  EXPECT_EQ(scheme.status().code(), StatusCode::kInvalidArgument);
}

TEST(PrefixFilterTest, BinaryCreateUsesBothSides) {
  SetCollection r = SetCollection::FromVectors({{1, 2, 3}});
  SetCollection s = SetCollection::FromVectors({{1, 4, 5}, {1, 6, 7}});
  auto predicate = std::make_shared<JaccardPredicate>(0.5);
  auto scheme = PrefixFilterScheme::Create(predicate, r, s);
  ASSERT_TRUE(scheme.ok());
  // Element 1 appears in 3 sets total; 2..7 once each.
  EXPECT_GT(scheme->Rank(1), scheme->Rank(2));
}

}  // namespace
}  // namespace ssjoin
