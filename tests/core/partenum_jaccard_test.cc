#include "core/partenum_jaccard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/nested_loop.h"
#include "core/ssjoin.h"
#include "data/generators.h"
#include "util/random.h"

namespace ssjoin {
namespace {

TEST(IntervalTest, PaperExampleFive) {
  // gamma = 0.9: I1=[1,1], I8=[8,8], I9=[9,10], I13=[17,18], I14=[19,21].
  std::vector<SizeRange> intervals =
      PartEnumJaccardScheme::BuildIntervals(0.9, 25);
  ASSERT_GE(intervals.size(), 14u);
  EXPECT_EQ(intervals[0].lo, 1u);
  EXPECT_EQ(intervals[0].hi, 1u);
  EXPECT_EQ(intervals[7].lo, 8u);
  EXPECT_EQ(intervals[7].hi, 8u);
  EXPECT_EQ(intervals[8].lo, 9u);
  EXPECT_EQ(intervals[8].hi, 10u);
  EXPECT_EQ(intervals[12].lo, 17u);
  EXPECT_EQ(intervals[12].hi, 18u);
  EXPECT_EQ(intervals[13].lo, 19u);
  EXPECT_EQ(intervals[13].hi, 21u);
}

TEST(IntervalTest, RightEndIsLoOverGamma) {
  // r_i = floor(l_i / gamma) (step (b) of Figure 6).
  for (double gamma : {0.5, 0.8, 0.85, 0.9, 0.95}) {
    std::vector<SizeRange> intervals =
        PartEnumJaccardScheme::BuildIntervals(gamma, 300);
    for (const SizeRange& iv : intervals) {
      uint32_t expected = static_cast<uint32_t>(
          std::floor(static_cast<double>(iv.lo) / gamma + 1e-9));
      EXPECT_EQ(iv.hi, std::max(iv.lo, expected));
    }
  }
}

TEST(IntervalTest, ThresholdFormula) {
  // k_i = 2 (1-gamma)/(1+gamma) r_i (step (c)); gamma=0.9, r=21:
  // 2*0.1/1.9*21 = 2.21 -> 2.
  EXPECT_EQ(PartEnumJaccardScheme::IntervalThreshold(0.9, 21), 2u);
  EXPECT_EQ(PartEnumJaccardScheme::IntervalThreshold(0.8, 20), 4u);
  // Equi-sized case (Section 5): common size l, threshold 2l(1-g)/(1+g).
  EXPECT_EQ(PartEnumJaccardScheme::EquisizedHammingThreshold(50, 0.8), 11u);
}

TEST(PartEnumJaccardSchemeTest, CreateValidation) {
  PartEnumJaccardParams params;
  params.gamma = 0.9;
  params.max_set_size = 0;
  EXPECT_FALSE(PartEnumJaccardScheme::Create(params).ok());
  params.max_set_size = 100;
  params.gamma = 1.5;
  EXPECT_FALSE(PartEnumJaccardScheme::Create(params).ok());
  params.gamma = 0.9;
  EXPECT_TRUE(PartEnumJaccardScheme::Create(params).ok());
}

TEST(PartEnumJaccardSchemeTest, CreateRejectsNanGamma) {
  PartEnumJaccardParams params;
  params.gamma = std::numeric_limits<double>::quiet_NaN();
  params.max_set_size = 100;
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_FALSE(scheme.ok());
  EXPECT_EQ(scheme.status().code(), StatusCode::kInvalidArgument);
}

TEST(PartEnumJaccardSchemeTest, IntervalIndexLookup) {
  PartEnumJaccardParams params;
  params.gamma = 0.9;
  params.max_set_size = 25;
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  EXPECT_EQ(scheme->IntervalIndex(1), 0u);
  EXPECT_EQ(scheme->IntervalIndex(9), 8u);
  EXPECT_EQ(scheme->IntervalIndex(10), 8u);
  EXPECT_EQ(scheme->IntervalIndex(19), 13u);
  EXPECT_EQ(scheme->IntervalIndex(21), 13u);
}

TEST(PartEnumJaccardSchemeTest, SignatureCountMatchesTwoInstances) {
  PartEnumJaccardParams params;
  params.gamma = 0.8;
  params.max_set_size = 60;
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  Rng rng(3);
  for (uint32_t size : {1u, 5u, 20u, 60u}) {
    std::vector<uint32_t> set = SampleWithoutReplacement(100000, size, rng);
    std::sort(set.begin(), set.end());
    std::vector<Signature> sigs = scheme->Signatures(set);
    EXPECT_EQ(sigs.size(), scheme->SignaturesForSize(size)) << size;
  }
}

TEST(PartEnumJaccardSchemeTest, EmptySetsShareSignature) {
  PartEnumJaccardParams params;
  params.gamma = 0.9;
  params.max_set_size = 10;
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  std::vector<ElementId> empty;
  std::vector<Signature> a = scheme->Signatures(empty);
  std::vector<Signature> b = scheme->Signatures(empty);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a, b);
}

// Exactness: the jaccard PartEnum join must reproduce brute force exactly,
// across thresholds and size distributions (the planted near-duplicates
// guarantee non-trivial output).
class JaccardExactnessTest : public ::testing::TestWithParam<double> {};

TEST_P(JaccardExactnessTest, MatchesNestedLoopOnMixedSizes) {
  double gamma = GetParam();
  Rng rng(static_cast<uint64_t>(gamma * 1000));
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < 150; ++i) {
    uint32_t size = 1 + rng.Uniform(30);
    sets.push_back(SampleWithoutReplacement(300, size, rng));
  }
  // Plant near-duplicates (including exact duplicates).
  for (int i = 0; i < 40; ++i) {
    std::vector<ElementId> dup = sets[rng.Uniform(150)];
    uint32_t drop = rng.Uniform(3);
    for (uint32_t d = 0; d < drop && dup.size() > 1; ++d) {
      dup.erase(dup.begin() + rng.Uniform(static_cast<uint32_t>(dup.size())));
    }
    sets.push_back(dup);
  }
  SetCollection input = SetCollection::FromVectors(sets);

  PartEnumJaccardParams params;
  params.gamma = gamma;
  params.max_set_size = input.max_set_size();
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());

  JaccardPredicate predicate(gamma);
  JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
  std::vector<SetPair> expected = NestedLoopSelfJoin(input, predicate);
  EXPECT_EQ(result.pairs, expected) << "gamma=" << gamma;
  EXPECT_GT(result.pairs.size(), 0u) << "vacuous test";
  EXPECT_EQ(result.stats.results, result.pairs.size());
}

INSTANTIATE_TEST_SUITE_P(Gammas, JaccardExactnessTest,
                         ::testing::Values(0.5, 0.6, 0.75, 0.8, 0.85, 0.9,
                                           0.95, 1.0));

TEST(PartEnumJaccardSchemeTest, ExactOnEquisizedSyntheticData) {
  // The paper's synthetic workload: equi-sized sets + planted duplicates.
  UniformSetOptions options;
  options.num_sets = 150;
  options.set_size = 20;
  options.domain_size = 500;
  options.similar_fraction = 0.2;
  options.mutations = 1;
  SetCollection input = GenerateUniformSets(options);

  PartEnumJaccardParams params;
  params.gamma = 0.8;
  params.max_set_size = 20;
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());

  JaccardPredicate predicate(0.8);
  JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
  std::vector<SetPair> expected = NestedLoopSelfJoin(input, predicate);
  EXPECT_EQ(result.pairs, expected);
  EXPECT_GT(result.pairs.size(), 10u);
}

TEST(PartEnumJaccardSchemeTest, CustomChooserIsUsed) {
  PartEnumJaccardParams params;
  params.gamma = 0.8;
  params.max_set_size = 40;
  int calls = 0;
  params.chooser = [&calls](uint32_t k) {
    ++calls;
    return PartEnumParams::Default(k);
  };
  auto scheme = PartEnumJaccardScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  EXPECT_GT(calls, 0);
}

}  // namespace
}  // namespace ssjoin
