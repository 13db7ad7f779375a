#include "baselines/lsh.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baselines/minhash.h"
#include "baselines/nested_loop.h"
#include "core/ssjoin.h"
#include "text/idf.h"
#include "util/sorted_sets.h"
#include "util/random.h"

namespace ssjoin {
namespace {

TEST(MinHasherTest, DeterministicAndSeeded) {
  MinHasher a(4, 1), b(4, 1), c(4, 2);
  std::vector<ElementId> set = {5, 9, 100, 3000};
  for (uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(a.MinHash(set, i), b.MinHash(set, i));
  }
  bool any_diff = false;
  for (uint32_t i = 0; i < 4; ++i) {
    if (a.MinHash(set, i) != c.MinHash(set, i)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(MinHasherTest, MinhashIsAMemberOfTheSet) {
  MinHasher hasher(8, 3);
  std::vector<ElementId> set = {2, 4, 8, 16, 32};
  for (uint32_t i = 0; i < 8; ++i) {
    uint64_t mh = hasher.MinHash(set, i);
    EXPECT_TRUE(std::find(set.begin(), set.end(),
                          static_cast<ElementId>(mh)) != set.end());
  }
}

TEST(MinHasherTest, EmptySetsAgree) {
  MinHasher hasher(2, 3);
  std::vector<ElementId> empty;
  EXPECT_EQ(hasher.MinHash(empty, 0), hasher.MinHash(empty, 1));
}

TEST(MinHasherTest, CollisionProbabilityApproximatesJaccard) {
  // P[minhash match] = Js(r, s); estimate over many hash functions.
  constexpr uint32_t kHashes = 2000;
  MinHasher hasher(kHashes, 7);
  std::vector<ElementId> a, b;
  for (ElementId e = 0; e < 30; ++e) a.push_back(e);
  for (ElementId e = 10; e < 40; ++e) b.push_back(e);
  // Js = 20 / 40 = 0.5.
  int matches = 0;
  for (uint32_t i = 0; i < kHashes; ++i) {
    if (hasher.MinHash(a, i) == hasher.MinHash(b, i)) ++matches;
  }
  EXPECT_NEAR(matches / static_cast<double>(kHashes), 0.5, 0.05);
}

TEST(LshParamsTest, RequiredRepetitionsFormula) {
  // l = ceil(ln(delta) / ln(1 - gamma^g)).
  EXPECT_EQ(LshParams::RequiredRepetitions(0.9, 0.05, 3),
            static_cast<uint32_t>(
                std::ceil(std::log(0.05) / std::log(1 - std::pow(0.9, 3)))));
  // gamma = 1: one repetition suffices.
  EXPECT_EQ(LshParams::RequiredRepetitions(1.0, 0.05, 4), 1u);
}

TEST(LshParamsTest, CollisionProbabilityAtThresholdMeetsAccuracy) {
  for (double gamma : {0.8, 0.9}) {
    for (uint32_t g : {2u, 3u, 5u}) {
      LshParams params = LshParams::ForAccuracy(gamma, 0.05, g);
      EXPECT_GE(params.CollisionProbability(gamma), 0.95 - 1e-9);
      // And one fewer repetition would not suffice.
      if (params.l > 1) {
        LshParams fewer = params;
        fewer.l = params.l - 1;
        EXPECT_LT(fewer.CollisionProbability(gamma), 0.95);
      }
    }
  }
}

TEST(LshSchemeTest, CreateValidation) {
  LshParams params;
  params.g = 0;
  EXPECT_FALSE(LshScheme::Create(params).ok());
  params.g = 3;
  params.l = 0;
  EXPECT_FALSE(LshScheme::Create(params).ok());
  params.l = 10;
  EXPECT_TRUE(LshScheme::Create(params).ok());
}

TEST(LshSchemeTest, GeneratesLSignatures) {
  LshParams params;
  params.g = 3;
  params.l = 17;
  auto scheme = LshScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  std::vector<ElementId> set = {1, 5, 9, 13};
  EXPECT_EQ(scheme->Signatures(set).size(), 17u);
  EXPECT_FALSE(scheme->IsExact());
}

TEST(LshSchemeTest, IdenticalSetsAlwaysCollide) {
  LshParams params;
  params.g = 4;
  params.l = 3;
  auto scheme = LshScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  std::vector<ElementId> set = {3, 1, 4, 1, 5, 9, 2, 6};
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  EXPECT_EQ(scheme->Signatures(set), scheme->Signatures(set));
}

TEST(LshSchemeTest, ObservedRecallMatchesConfigured) {
  // The paper: "The observed accuracy of LSH in all our experiments was
  // very close to the predicted accuracy." Verify at delta = 0.05,
  // gamma = 0.8 on planted near-duplicates.
  Rng rng(99);
  std::vector<std::vector<ElementId>> sets;
  constexpr int kBase = 300;
  for (int i = 0; i < kBase; ++i) {
    sets.push_back(SampleWithoutReplacement(100000, 40, rng));
  }
  for (int i = 0; i < kBase; ++i) {
    // Mutate 4 of 40 elements: jaccard ~= 36/44 ≈ 0.818 >= 0.8.
    std::vector<ElementId> dup = sets[i];
    for (int m = 0; m < 4; ++m) dup[m] = 100000 + i * 10 + m;
    sets.push_back(dup);
  }
  SetCollection input = SetCollection::FromVectors(sets);

  LshParams params = LshParams::ForAccuracy(0.8, 0.05, 3);
  auto scheme = LshScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  JaccardPredicate predicate(0.8);
  JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
  std::vector<SetPair> expected = NestedLoopSelfJoin(input, predicate);
  ASSERT_GE(expected.size(), static_cast<size_t>(kBase));

  // Recall: |found| / |expected| (LSH never produces wrong pairs, only
  // misses; verify found ⊆ expected too).
  std::vector<SetPair> missed;
  std::set_difference(expected.begin(), expected.end(),
                      result.pairs.begin(), result.pairs.end(),
                      std::back_inserter(missed));
  double recall = 1.0 - static_cast<double>(missed.size()) /
                            static_cast<double>(expected.size());
  EXPECT_GE(recall, 0.90);  // configured 0.95, generous test margin
  for (const SetPair& p : result.pairs) {
    EXPECT_TRUE(std::binary_search(expected.begin(), expected.end(), p));
  }
}

TEST(WeightedLshSchemeTest, RecallOnWeightedJaccard) {
  Rng rng(123);
  std::vector<std::vector<ElementId>> sets;
  constexpr int kBase = 200;
  for (int i = 0; i < kBase; ++i) {
    sets.push_back(SampleWithoutReplacement(5000, 20, rng));
  }
  for (int i = 0; i < kBase / 2; ++i) {
    std::vector<ElementId> dup = sets[i];
    dup[0] = 6000 + i;  // small perturbation
    sets.push_back(dup);
  }
  SetCollection input = SetCollection::FromVectors(sets);
  IdfWeights idf = IdfWeights::Compute(input);
  WeightFunction weights = [&idf](ElementId e) {
    return idf.Weight(e) + 0.1;
  };

  LshParams params = LshParams::ForAccuracy(0.8, 0.05, 3);
  auto scheme = WeightedLshScheme::Create(params, weights);
  ASSERT_TRUE(scheme.ok());
  WeightedJaccardPredicate predicate(0.8, weights);
  JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
  std::vector<SetPair> expected = NestedLoopSelfJoin(input, predicate);
  ASSERT_GT(expected.size(), 0u);
  std::vector<SetPair> missed;
  std::set_difference(expected.begin(), expected.end(),
                      result.pairs.begin(), result.pairs.end(),
                      std::back_inserter(missed));
  double recall = 1.0 - static_cast<double>(missed.size()) /
                            static_cast<double>(expected.size());
  // The exponential-clock weighted minhash is approximate (see
  // minhash.h); allow a wider margin than unweighted LSH.
  EXPECT_GE(recall, 0.80);
}

TEST(WeightedMinHasherTest, UniformWeightsMatchUnweightedBehaviour) {
  // With all-equal weights the weighted sampler is a minhash: collision
  // probability ≈ jaccard.
  constexpr uint32_t kHashes = 1500;
  WeightedMinHasher hasher(kHashes, 11);
  std::vector<ElementId> a, b;
  std::vector<double> wa, wb;
  for (ElementId e = 0; e < 20; ++e) {
    a.push_back(e);
    wa.push_back(1.0);
  }
  for (ElementId e = 10; e < 30; ++e) {
    b.push_back(e);
    wb.push_back(1.0);
  }
  int matches = 0;
  for (uint32_t i = 0; i < kHashes; ++i) {
    if (hasher.MinHash(a, wa, i) == hasher.MinHash(b, wb, i)) ++matches;
  }
  // Js = 10/30 = 1/3.
  EXPECT_NEAR(matches / static_cast<double>(kHashes), 1.0 / 3.0, 0.06);
}

}  // namespace
}  // namespace ssjoin
