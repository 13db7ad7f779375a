#include "core/parameter_advisor.h"

#include <gtest/gtest.h>

#include "core/ssjoin.h"
#include "core/predicate.h"
#include "data/generators.h"

namespace ssjoin {
namespace {

SetCollection Synthetic(size_t n, uint64_t seed = 5) {
  UniformSetOptions options;
  options.num_sets = n;
  options.set_size = 30;
  options.domain_size = 2000;
  options.similar_fraction = 0.05;
  options.mutations = 2;
  options.seed = seed;
  return GenerateUniformSets(options);
}

TEST(AdvisorTest, EvaluateReturnsSortedChoices) {
  SetCollection input = Synthetic(400);
  AdvisorOptions options;
  options.sample_size = 200;
  std::vector<PartEnumChoice> choices =
      EvaluatePartEnumParams(input, 6, 0, options);
  ASSERT_GT(choices.size(), 1u);
  for (size_t i = 1; i < choices.size(); ++i) {
    EXPECT_LE(choices[i - 1].estimated_f2, choices[i].estimated_f2);
  }
  for (const PartEnumChoice& c : choices) {
    EXPECT_TRUE(c.params.Validate().ok());
    EXPECT_EQ(c.signatures_per_set, c.params.SignaturesPerSet());
  }
}

TEST(AdvisorTest, ChooseReturnsBest) {
  SetCollection input = Synthetic(400);
  auto best = ChoosePartEnumParams(input, 6);
  ASSERT_TRUE(best.ok());
  std::vector<PartEnumChoice> all = EvaluatePartEnumParams(input, 6, 0, {});
  EXPECT_EQ(best->params.n1, all.front().params.n1);
  EXPECT_EQ(best->params.n2, all.front().params.n2);
}

TEST(AdvisorTest, LargerTargetPrefersMoreSignatures) {
  // Table 1's trend: as input size grows, the optimal setting spends more
  // signatures per set to buy filtering effectiveness.
  SetCollection input = Synthetic(500);
  AdvisorOptions options;
  options.sample_size = 300;
  auto small = ChoosePartEnumParams(input, 8, 2000, options);
  auto large = ChoosePartEnumParams(input, 8, 2000000, options);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_GE(large->signatures_per_set, small->signatures_per_set);
}

TEST(AdvisorTest, EstimateSchemeF2TracksExact) {
  // On the full input (sample == everything) the exact-mode estimate must
  // equal the driver's F2 accounting.
  SetCollection input = Synthetic(300);
  PartEnumParams params = PartEnumParams::Default(6);
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  AdvisorOptions options;
  options.sample_size = input.size();  // no sampling
  double estimate = EstimateSchemeF2(input, *scheme, 0, options);

  HammingPredicate predicate(6);
  JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
  EXPECT_NEAR(estimate, static_cast<double>(result.stats.F2()),
              estimate * 1e-9);
}

TEST(AdvisorTest, SketchModeApproximatesExactMode) {
  SetCollection input = Synthetic(300);
  PartEnumParams params = PartEnumParams::Default(6);
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  AdvisorOptions exact, sketch;
  exact.sample_size = sketch.sample_size = 300;
  sketch.use_ams_sketch = true;
  double e = EstimateSchemeF2(input, *scheme, 0, exact);
  double s = EstimateSchemeF2(input, *scheme, 0, sketch);
  // Signature term dominates for PartEnum on random data; the sketch only
  // perturbs the (small) collision estimate.
  EXPECT_GT(s, e * 0.5);
  EXPECT_LT(s, e * 1.5);
}

TEST(AdvisorTest, LshChoicesRespectAccuracy) {
  SetCollection input = Synthetic(300);
  std::vector<LshChoice> choices =
      EvaluateLshParams(input, 0.8, 0.05, 6, 0, {});
  ASSERT_FALSE(choices.empty());
  for (const LshChoice& c : choices) {
    // Every candidate must reach >= 95% recall at similarity 0.8.
    EXPECT_GE(c.params.CollisionProbability(0.8), 0.95 - 1e-9);
  }
  auto best = ChooseLshParams(input, 0.8, 0.05);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->params.g, choices.front().params.g);
}

TEST(AdvisorTest, NoValidSettingIsNotFound) {
  SetCollection input = Synthetic(50);
  AdvisorOptions options;
  options.max_signatures_per_set = 0;  // nothing fits
  auto best = ChoosePartEnumParams(input, 4, 0, options);
  EXPECT_FALSE(best.ok());
  EXPECT_EQ(best.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ssjoin
