#include "core/wtenum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "baselines/nested_loop.h"
#include "core/ssjoin.h"
#include "text/idf.h"
#include "util/hashing.h"
#include "util/random.h"

namespace ssjoin {
namespace {

// The weighted set of paper Example 6: s = {a8, b4, c3, d2, e1, f1, g1}.
// Elements a..g encoded as 1..7. Note descending-weight order coincides
// with ascending element id, matching the example's presentation.
WeightFunction ExampleSixWeights() {
  return [](ElementId e) -> double {
    static const double kWeights[] = {0, 8, 4, 3, 2, 1, 1, 1};
    return e < 8 ? kWeights[e] : 0.0;
  };
}

TEST(WtEnumTest, PaperExampleSixSignatureCount) {
  // T = 17, TH = 14: the signature set is {<a,b,d>, <a,b,c>} — exactly two
  // distinct prefixes over the five minimal subsets (Figure 9).
  WtEnumParams params;
  params.pruning_threshold = 14.0;
  auto scheme = WtEnumScheme::CreateOverlap(ExampleSixWeights(),
                                            ExampleSixWeights(), 17.0,
                                            params);
  ASSERT_TRUE(scheme.ok());
  std::vector<ElementId> s = {1, 2, 3, 4, 5, 6, 7};
  std::vector<Signature> sigs = scheme->Signatures(s);
  std::sort(sigs.begin(), sigs.end());
  sigs.erase(std::unique(sigs.begin(), sigs.end()), sigs.end());
  EXPECT_EQ(sigs.size(), 2u);
  EXPECT_FALSE(scheme->overflowed());
}

TEST(WtEnumTest, ExampleSixSharedWithQualifyingPartner) {
  // "Any set that has a weighted intersection of 17 with s has to contain
  // both a and b and at least one of c or d" — check a few such partners
  // share a signature with s, and a non-qualifying one does not have to.
  WtEnumParams params;
  params.pruning_threshold = 14.0;
  auto scheme = WtEnumScheme::CreateOverlap(ExampleSixWeights(),
                                            ExampleSixWeights(), 17.0,
                                            params);
  ASSERT_TRUE(scheme.ok());
  std::vector<ElementId> s = {1, 2, 3, 4, 5, 6, 7};
  std::vector<Signature> s_sigs = scheme->Signatures(s);
  std::sort(s_sigs.begin(), s_sigs.end());

  auto shares = [&](std::vector<ElementId> partner) {
    std::vector<Signature> p_sigs = scheme->Signatures(partner);
    std::sort(p_sigs.begin(), p_sigs.end());
    std::vector<Signature> shared;
    std::set_intersection(s_sigs.begin(), s_sigs.end(), p_sigs.begin(),
                          p_sigs.end(), std::back_inserter(shared));
    return !shared.empty();
  };
  EXPECT_TRUE(shares({1, 2, 3, 4}));        // a,b,c,d: overlap 17
  EXPECT_TRUE(shares({1, 2, 3, 5, 6}));     // a,b,c,e,f: overlap 17
  EXPECT_TRUE(shares({1, 2, 4, 5, 6, 7}));  // a,b,d,e,f,g: overlap 17
}

TEST(WtEnumTest, CreateValidation) {
  WtEnumParams params;
  params.pruning_threshold = 0;  // invalid
  EXPECT_FALSE(WtEnumScheme::CreateOverlap(ExampleSixWeights(),
                                           ExampleSixWeights(), 5.0, params)
                   .ok());
  params.pruning_threshold = 3.0;
  EXPECT_FALSE(WtEnumScheme::CreateOverlap(nullptr, ExampleSixWeights(),
                                           5.0, params)
                   .ok());
  EXPECT_FALSE(WtEnumScheme::CreateOverlap(ExampleSixWeights(),
                                           ExampleSixWeights(), -1.0,
                                           params)
                   .ok());
  EXPECT_FALSE(WtEnumScheme::CreateJaccard(ExampleSixWeights(),
                                           ExampleSixWeights(), 1.2, 1.0,
                                           params)
                   .ok());
  EXPECT_FALSE(WtEnumScheme::CreateJaccard(ExampleSixWeights(),
                                           ExampleSixWeights(), 0.8, 0.0,
                                           params)
                   .ok());
}

TEST(WtEnumTest, CreateJaccardRejectsNan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  WtEnumParams params;
  params.pruning_threshold = 3.0;
  auto nan_gamma = WtEnumScheme::CreateJaccard(
      ExampleSixWeights(), ExampleSixWeights(), nan, 1.0, params);
  ASSERT_FALSE(nan_gamma.ok());
  EXPECT_EQ(nan_gamma.status().code(), StatusCode::kInvalidArgument);
  auto nan_size = WtEnumScheme::CreateJaccard(
      ExampleSixWeights(), ExampleSixWeights(), 0.8, nan, params);
  ASSERT_FALSE(nan_size.ok());
  EXPECT_EQ(nan_size.status().code(), StatusCode::kInvalidArgument);
}

// Exactness of the overlap mode: WtEnum + driver = brute force, on random
// weighted workloads with planted overlaps.
TEST(WtEnumTest, OverlapModeExactOnRandomData) {
  Rng rng(61);
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < 120; ++i) {
    sets.push_back(SampleWithoutReplacement(200, 3 + rng.Uniform(10), rng));
  }
  for (int i = 0; i < 40; ++i) {
    std::vector<ElementId> dup = sets[rng.Uniform(120)];
    if (dup.size() > 1 && rng.Bernoulli(0.5)) dup.pop_back();
    sets.push_back(dup);
  }
  SetCollection input = SetCollection::FromVectors(sets);
  IdfWeights idf = IdfWeights::Compute(input);
  WeightFunction weights = [&idf](ElementId e) {
    return idf.Weight(e) + 0.01;  // strictly positive
  };

  for (double threshold : {4.0, 8.0, 12.0}) {
    WtEnumParams params;
    params.pruning_threshold = idf.DefaultPruningThreshold();
    auto scheme =
        WtEnumScheme::CreateOverlap(weights, weights, threshold, params);
    ASSERT_TRUE(scheme.ok());
    ASSERT_TRUE(scheme->Validate(input).ok());

    WeightedOverlapPredicate predicate(threshold, weights);
    JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
    std::vector<SetPair> expected = NestedLoopSelfJoin(input, predicate);
    EXPECT_EQ(result.pairs, expected) << "T=" << threshold;
    EXPECT_FALSE(scheme->overflowed());
  }
}

// Exactness of the jaccard mode across thresholds.
class WtEnumJaccardTest : public ::testing::TestWithParam<double> {};

TEST_P(WtEnumJaccardTest, ExactOnRandomData) {
  double gamma = GetParam();
  Rng rng(static_cast<uint64_t>(gamma * 777));
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < 100; ++i) {
    sets.push_back(SampleWithoutReplacement(150, 2 + rng.Uniform(12), rng));
  }
  for (int i = 0; i < 50; ++i) {
    std::vector<ElementId> dup = sets[rng.Uniform(100)];
    if (dup.size() > 2 && rng.Bernoulli(0.6)) dup.pop_back();
    sets.push_back(dup);
  }
  SetCollection input = SetCollection::FromVectors(sets);
  IdfWeights idf = IdfWeights::Compute(input);
  WeightFunction weights = [&idf](ElementId e) {
    return idf.Weight(e) + 0.01;
  };

  double min_ws = std::numeric_limits<double>::infinity();
  for (SetId id = 0; id < input.size(); ++id) {
    min_ws = std::min(min_ws, WeightedSize(input.set(id), weights));
  }

  WtEnumParams params;
  params.pruning_threshold = idf.DefaultPruningThreshold();
  auto scheme =
      WtEnumScheme::CreateJaccard(weights, weights, gamma, min_ws, params);
  ASSERT_TRUE(scheme.ok());
  ASSERT_TRUE(scheme->Validate(input).ok());

  WeightedJaccardPredicate predicate(gamma, weights);
  JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
  std::vector<SetPair> expected = NestedLoopSelfJoin(input, predicate);
  EXPECT_EQ(result.pairs, expected) << "gamma=" << gamma;
  EXPECT_GT(result.pairs.size(), 0u) << "vacuous test";
}

INSTANTIATE_TEST_SUITE_P(Gammas, WtEnumJaccardTest,
                         ::testing::Values(0.6, 0.75, 0.85, 0.9));

TEST(WtEnumTest, LowerPruningThresholdFewerSignatures) {
  // TH controls the signature-count / selectivity tradeoff: lower TH =>
  // shorter prefixes => fewer distinct prefixes.
  std::vector<ElementId> s = {1, 2, 3, 4, 5, 6, 7};
  WtEnumParams low, high;
  low.pruning_threshold = 8.0;
  high.pruning_threshold = 16.0;
  auto scheme_low = WtEnumScheme::CreateOverlap(ExampleSixWeights(),
                                                ExampleSixWeights(), 17.0,
                                                low);
  auto scheme_high = WtEnumScheme::CreateOverlap(ExampleSixWeights(),
                                                 ExampleSixWeights(), 17.0,
                                                 high);
  ASSERT_TRUE(scheme_low.ok());
  ASSERT_TRUE(scheme_high.ok());
  EXPECT_LE(scheme_low->Signatures(s).size(),
            scheme_high->Signatures(s).size());
}

TEST(WtEnumTest, IntervalIndexGeometric) {
  WtEnumParams params;
  params.pruning_threshold = 3.0;
  auto scheme = WtEnumScheme::CreateJaccard(ExampleSixWeights(),
                                            ExampleSixWeights(), 0.5, 1.0,
                                            params);
  ASSERT_TRUE(scheme.ok());
  // growth = 2: intervals [1,2), [2,4), [4,8), ...
  EXPECT_EQ(scheme->IntervalIndex(1.0), 0u);
  EXPECT_EQ(scheme->IntervalIndex(1.9), 0u);
  EXPECT_EQ(scheme->IntervalIndex(2.1), 1u);
  EXPECT_EQ(scheme->IntervalIndex(5.0), 2u);
  EXPECT_EQ(scheme->IntervalIndex(16.5), 4u);
}

TEST(WtEnumTest, IntervalAdjacencyForJoinableWeightedPairs) {
  // The weighted analog of the Section 5 adjacency property: any pair
  // with weighted jaccard >= gamma must land in the same or adjacent
  // weighted-size intervals — the invariant that makes the i/i+1 tags a
  // complete filter.
  Rng rng(66);
  WeightFunction weights = [](ElementId e) {
    return 0.3 + static_cast<double>(e % 11) * 0.7;
  };
  for (double gamma : {0.6, 0.8, 0.9}) {
    std::vector<std::vector<ElementId>> sets;
    for (int i = 0; i < 60; ++i) {
      sets.push_back(
          SampleWithoutReplacement(100, 1 + rng.Uniform(20), rng));
    }
    for (int i = 0; i < 60; ++i) {
      std::vector<ElementId> dup = sets[rng.Uniform(60)];
      if (dup.size() > 1 && rng.Bernoulli(0.7)) dup.pop_back();
      sets.push_back(dup);
    }
    SetCollection input = SetCollection::FromVectors(sets);
    double min_ws = std::numeric_limits<double>::infinity();
    for (SetId id = 0; id < input.size(); ++id) {
      min_ws = std::min(min_ws, WeightedSize(input.set(id), weights));
    }
    WtEnumParams params;
    params.pruning_threshold = 3.0;
    auto scheme =
        WtEnumScheme::CreateJaccard(weights, weights, gamma, min_ws, params);
    ASSERT_TRUE(scheme.ok());
    WeightedJaccardPredicate predicate(gamma, weights);
    for (SetId a = 0; a < input.size(); ++a) {
      for (SetId b = a + 1; b < input.size(); ++b) {
        if (!predicate.Evaluate(input.set(a), input.set(b))) continue;
        uint32_t ia =
            scheme->IntervalIndex(WeightedSize(input.set(a), weights));
        uint32_t ib =
            scheme->IntervalIndex(WeightedSize(input.set(b), weights));
        EXPECT_LE(ia > ib ? ia - ib : ib - ia, 1u)
            << "gamma=" << gamma << " pair " << a << "," << b;
      }
    }
  }
}

TEST(WtEnumTest, BudgetOverflowIsReportedByValidate) {
  // Pathological: many equal tiny weights force combinatorial minimal
  // subsets; a tiny budget must trip Validate.
  WeightFunction unit = [](ElementId) { return 1.0; };
  WtEnumParams params;
  params.pruning_threshold = 10.0;
  params.max_nodes_per_set = 50;
  auto scheme = WtEnumScheme::CreateOverlap(unit, unit, 12.0, params);
  ASSERT_TRUE(scheme.ok());
  std::vector<std::vector<ElementId>> sets;
  std::vector<ElementId> big;
  for (ElementId e = 1; e <= 24; ++e) big.push_back(e);
  sets.push_back(big);
  SetCollection input = SetCollection::FromVectors(sets);
  EXPECT_FALSE(scheme->Validate(input).ok());
}

// ---------------------------------------------------------------------------
// Sequence-exact generation: the raw Generate output of every set, in
// emission order, is pinned by a digest recorded from the reference
// implementation (one entry array per instance, an unordered_set dedup per
// instance). Size weights deliberately differ from the order weights, so
// the greedy completion check fails and the budgeted SearchCompletion
// fallback runs.

// Size weights uncorrelated with IDF order: the greedy completion is
// often non-minimal.
double SizeWeight(ElementId e) {
  return 0.25 + static_cast<double>((e * 7u) % 13u) * 0.35;
}

std::vector<std::vector<ElementId>> RandomSets(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < n; ++i) {
    sets.push_back(SampleWithoutReplacement(180, 1 + rng.Uniform(14), rng));
  }
  for (int i = 0; i < n / 4; ++i) {
    std::vector<ElementId> dup = sets[rng.Uniform(static_cast<uint32_t>(n))];
    if (dup.size() > 1 && rng.Bernoulli(0.5)) dup.pop_back();
    sets.push_back(dup);
  }
  return sets;
}

bool HasDuplicates(std::vector<Signature> sigs) {
  std::sort(sigs.begin(), sigs.end());
  return std::adjacent_find(sigs.begin(), sigs.end()) != sigs.end();
}

// Order-sensitive digest over every set's raw output; also asserts that
// no set's raw output repeats a signature.
uint64_t RawOutputDigest(const WtEnumScheme& scheme,
                         const SetCollection& input) {
  SequenceHasher digest(0);
  std::vector<Signature> sigs;
  for (SetId id = 0; id < input.size(); ++id) {
    sigs.clear();
    scheme.Generate(input.set(id), &sigs);
    EXPECT_FALSE(HasDuplicates(sigs)) << "set " << id;
    digest.Add(sigs.size());
    for (Signature sig : sigs) digest.Add(sig);
  }
  return digest.Finish();
}

TEST(WtEnumTest, RawGenerateSequenceExactOverlapMode) {
  SetCollection input = SetCollection::FromVectors(RandomSets(91, 240));
  IdfWeights idf = IdfWeights::Compute(input);
  WeightFunction order = [&idf](ElementId e) { return idf.Weight(e); };
  WtEnumParams params;
  params.pruning_threshold = idf.DefaultPruningThreshold();
  uint64_t digests[3];
  int k = 0;
  for (double threshold : {2.0, 4.5, 7.0}) {
    auto scheme =
        WtEnumScheme::CreateOverlap(SizeWeight, order, threshold, params);
    ASSERT_TRUE(scheme.ok());
    digests[k++] = RawOutputDigest(*scheme, input);
    EXPECT_FALSE(scheme->overflowed()) << "T=" << threshold;
  }
  EXPECT_EQ(digests[0], 10551229172000196084ULL);
  EXPECT_EQ(digests[1], 1967174748003811736ULL);
  EXPECT_EQ(digests[2], 4162191709056497222ULL);
}

TEST(WtEnumTest, RawGenerateSequenceExactJaccardMode) {
  std::vector<std::vector<ElementId>> sets = RandomSets(92, 240);
  SetCollection base = SetCollection::FromVectors(sets);
  IdfWeights idf = IdfWeights::Compute(base);
  WeightFunction order = [&idf](ElementId e) { return idf.Weight(e); };
  double min_ws = std::numeric_limits<double>::infinity();
  for (SetId id = 0; id < base.size(); ++id) {
    min_ws = std::min(min_ws, WeightedSize(base.set(id), SizeWeight));
  }
  WtEnumParams params;
  params.pruning_threshold = idf.DefaultPruningThreshold();
  uint64_t digests[2];
  int k = 0;
  for (double gamma : {0.5, 0.8}) {
    // b_1, computed with the same expressions CreateJaccard and
    // IntervalIndex use, so a set of weighted size `boundary` sits
    // exactly on the first interval boundary.
    double boundary = min_ws * (1.0 - 1e-9) * ((1.0 / gamma) * (1.0 + 1e-9));
    constexpr ElementId kBoundaryElement = 1000;
    constexpr ElementId kBoundaryHelper = 1001;
    WeightFunction size = [boundary](ElementId e) {
      if (e == kBoundaryHelper) return 0.5;
      if (e == kBoundaryElement) return boundary - 0.5;
      return SizeWeight(e);
    };
    std::vector<std::vector<ElementId>> with_edges = sets;
    with_edges.push_back({});                                  // empty set
    with_edges.push_back({kBoundaryElement, kBoundaryHelper});  // on b_1
    SetCollection input = SetCollection::FromVectors(with_edges);
    SetId on_boundary = static_cast<SetId>(input.size() - 1);
    ASSERT_EQ(WeightedSize(input.set(on_boundary), size), boundary);

    auto scheme =
        WtEnumScheme::CreateJaccard(size, order, gamma, min_ws, params);
    ASSERT_TRUE(scheme.ok());
    ASSERT_EQ(scheme->IntervalIndex(boundary), 1u);
    ASSERT_EQ(scheme->IntervalIndex(std::nextafter(boundary, 0.0)), 0u);
    digests[k++] = RawOutputDigest(*scheme, input);
    EXPECT_FALSE(scheme->overflowed()) << "gamma=" << gamma;
  }
  EXPECT_EQ(digests[0], 11917950733547149901ULL);
  EXPECT_EQ(digests[1], 7421985529033594175ULL);
}

TEST(WtEnumTest, RawGenerateHasNoDuplicatesAtDefaultBudget) {
  // The 24-unit-weight set of BudgetOverflowIsReportedByValidate with the
  // default budget: the widest enumeration in this file.
  WeightFunction unit = [](ElementId) { return 1.0; };
  WtEnumParams params;
  params.pruning_threshold = 10.0;
  auto scheme = WtEnumScheme::CreateOverlap(unit, unit, 12.0, params);
  ASSERT_TRUE(scheme.ok());
  std::vector<ElementId> big;
  for (ElementId e = 1; e <= 24; ++e) big.push_back(e);
  std::vector<Signature> sigs = scheme->Signatures(big);
  EXPECT_FALSE(sigs.empty());
  EXPECT_FALSE(HasDuplicates(sigs));
}

}  // namespace
}  // namespace ssjoin
