#include "core/parameter_advisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/ssjoin.h"
#include "core/predicate.h"
#include "data/generators.h"
#include "obs/explain.h"

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

// The advisor tests below cap the search at 128 signatures/set: the
// settings they choose spend at most 18, and the uncapped 4096 search
// costs seconds per test for the same choice.
constexpr uint64_t kTestSignatureCap = 128;

TEST(AdvisorTest, ChooseReturnsBest) {
  SetCollection input = Synthetic(400);
  AdvisorOptions options;
  options.max_signatures_per_set = kTestSignatureCap;
  auto best = ChoosePartEnumParams(input, 6, 0, options);
  ASSERT_TRUE(best.ok());
  std::vector<PartEnumChoice> all =
      EvaluatePartEnumParams(input, 6, 0, options);
  EXPECT_EQ(best->params.n1, all.front().params.n1);
  EXPECT_EQ(best->params.n2, all.front().params.n2);
}

TEST(AdvisorTest, LargerTargetPrefersMoreSignatures) {
  // Table 1's trend: as input size grows, the optimal setting spends more
  // signatures per set to buy filtering effectiveness.
  SetCollection input = Synthetic(500);
  AdvisorOptions options;
  options.sample_size = 300;
  options.max_signatures_per_set = kTestSignatureCap;
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

// The naive reference for the advisor's sample statistics: per-set sort
// and unique, one global sort, then S = the signature count and
// C = sum over values of C(c, 2).
struct ReferenceStats {
  uint64_t signatures = 0;
  double collisions = 0;
};

ReferenceStats NaiveSampleStats(const SetCollection& sample,
                                const SignatureScheme& scheme) {
  std::vector<Signature> all;
  for (SetId id = 0; id < sample.size(); ++id) {
    std::vector<Signature> sigs = scheme.Signatures(sample.set(id));
    std::sort(sigs.begin(), sigs.end());
    sigs.erase(std::unique(sigs.begin(), sigs.end()), sigs.end());
    all.insert(all.end(), sigs.begin(), sigs.end());
  }
  std::sort(all.begin(), all.end());
  ReferenceStats stats;
  stats.signatures = all.size();
  for (size_t i = 0; i < all.size();) {
    size_t j = i;
    while (j < all.size() && all[j] == all[i]) ++j;
    double c = static_cast<double>(j - i);
    stats.collisions += c * (c - 1) / 2.0;
    i = j;
  }
  return stats;
}

// Exact mode with target == sample size (scale 1): F2 = 2S + C.
void ExpectExactF2MatchesReference(const SetCollection& input,
                                   const SignatureScheme& scheme) {
  AdvisorOptions options;
  options.sample_size = input.size();  // no sampling
  ReferenceStats ref = NaiveSampleStats(input, scheme);
  ASSERT_GT(ref.collisions, 0) << "the input must exercise collisions";
  EXPECT_EQ(EstimateSchemeF2(input, scheme, input.size(), options),
            2.0 * static_cast<double>(ref.signatures) + ref.collisions);
}

TEST(AdvisorTest, ExactF2MatchesNaiveReferencePartEnum) {
  SetCollection input = Synthetic(400);
  auto scheme = PartEnumScheme::Create(PartEnumParams::Default(6));
  ASSERT_TRUE(scheme.ok());
  ExpectExactF2MatchesReference(input, *scheme);
}

TEST(AdvisorTest, ExactF2MatchesNaiveReferenceLsh) {
  SetCollection input = Synthetic(400);
  auto scheme = LshScheme::Create(LshParams::ForAccuracy(0.8, 0.05, 2));
  ASSERT_TRUE(scheme.ok());
  ExpectExactF2MatchesReference(input, *scheme);
}

// Emits, per set, the signature 0, each element modulo 7 (so many
// repeats within one set and across sets) and the set's size, in an
// order that is not sorted.
class RepeatingScheme final : public SignatureScheme {
 public:
  std::string Name() const override { return "repeating"; }
  void Generate(std::span<const ElementId> set,
                std::vector<Signature>* out) const override {
    out->push_back(set.size());
    for (ElementId e : set) out->push_back(e % 7);
    out->push_back(0);
    out->push_back(set.size());
  }
};

TEST(AdvisorTest, ExactF2MatchesNaiveReferenceWithDuplicatesAndZero) {
  SetCollection input = Synthetic(300);
  RepeatingScheme scheme;
  ExpectExactF2MatchesReference(input, scheme);

  SetCollection tiny = SetCollection::FromVectors({{0}, {7, 14}, {}, {0}});
  ExpectExactF2MatchesReference(tiny, scheme);
}

TEST(AdvisorTest, PartEnumTraceRowsMatchNaiveReference) {
  SetCollection input = Synthetic(600);
  const uint32_t k = 6;
  const size_t target = 50000;
  for (uint64_t cap : {64u, 512u}) {
    obs::AdvisorTrace trace;
    AdvisorOptions options;
    options.sample_size = 300;
    options.max_signatures_per_set = cap;
    options.trace = &trace;
    auto best = ChoosePartEnumParams(input, k, target, options);
    ASSERT_TRUE(best.ok());

    SetCollection sample = input.Sample(options.sample_size, options.seed);
    const double scale =
        static_cast<double>(target) / static_cast<double>(sample.size());
    std::vector<PartEnumParams> settings =
        PartEnumParams::EnumerateValid(k, cap, options.seed);
    ASSERT_EQ(trace.candidates.size(), settings.size()) << "cap " << cap;
    const obs::AdvisorCandidate* best_row = nullptr;
    size_t chosen_rows = 0;
    for (size_t i = 0; i < settings.size(); ++i) {
      auto scheme = PartEnumScheme::Create(settings[i]);
      ASSERT_TRUE(scheme.ok());
      ReferenceStats ref = NaiveSampleStats(sample, *scheme);
      const obs::AdvisorCandidate& row = trace.candidates[i];
      EXPECT_EQ(row.label, "n1=" + std::to_string(settings[i].n1) +
                               ",n2=" + std::to_string(settings[i].n2));
      EXPECT_EQ(row.sample_signatures, ref.signatures) << row.label;
      EXPECT_EQ(row.sample_collisions, ref.collisions) << row.label;
      EXPECT_EQ(row.predicted_f2,
                2.0 * static_cast<double>(ref.signatures) * scale +
                    ref.collisions * scale * scale)
          << row.label;
      if (row.chosen) ++chosen_rows;
      if (best_row == nullptr || row.predicted_f2 < best_row->predicted_f2 ||
          (row.predicted_f2 == best_row->predicted_f2 &&
           row.signatures_per_set < best_row->signatures_per_set)) {
        best_row = &row;
      }
    }
    // The chosen row is the reference argmin (F2, then fewer signatures).
    ASSERT_EQ(chosen_rows, 1u) << "cap " << cap;
    const obs::AdvisorCandidate* chosen = trace.Chosen();
    ASSERT_NE(chosen, nullptr);
    EXPECT_EQ(chosen->predicted_f2, best_row->predicted_f2);
    EXPECT_EQ(chosen->signatures_per_set, best_row->signatures_per_set);
    EXPECT_EQ(chosen->label, "n1=" + std::to_string(best->params.n1) +
                                 ",n2=" + std::to_string(best->params.n2));
  }
}

}  // namespace
}  // namespace ssjoin
