#include "core/parameter_advisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
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

// The advisor tests below cap the search at 128 signatures/set: the
// settings they choose spend at most 18, and the naive reference they
// compare against scores every setting under the cap in full.
// DefaultCapChoosesAsSmallCap (advisor_explain_test.cc) runs the same
// inputs at the default cap of 4096.
constexpr uint64_t kTestSignatureCap = 128;

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

// One setting of the exhaustive reference search: its trace label, its
// signatures per set and its naive sample statistics.
struct ReferenceRow {
  std::string label;
  uint64_t signatures_per_set = 0;
  ReferenceStats stats;
  double f2 = 0;
};

ReferenceRow ScoreReference(const SetCollection& sample,
                            const SignatureScheme& scheme, std::string label,
                            uint64_t signatures_per_set, double scale) {
  ReferenceRow row;
  row.label = std::move(label);
  row.signatures_per_set = signatures_per_set;
  row.stats = NaiveSampleStats(sample, scheme);
  row.f2 = 2.0 * static_cast<double>(row.stats.signatures) * scale +
           row.stats.collisions * scale * scale;
  return row;
}

std::vector<ReferenceRow> PartEnumReference(const SetCollection& input,
                                            uint32_t k, size_t target,
                                            const AdvisorOptions& options) {
  SetCollection sample = input.Sample(options.sample_size, options.seed);
  const double scale =
      static_cast<double>(target) / static_cast<double>(sample.size());
  std::vector<ReferenceRow> rows;
  for (const PartEnumParams& params : PartEnumParams::EnumerateValid(
           k, options.max_signatures_per_set, options.seed)) {
    auto scheme = PartEnumScheme::Create(params);
    EXPECT_TRUE(scheme.ok()) << scheme.status().ToString();
    if (!scheme.ok()) continue;
    rows.push_back(ScoreReference(
        sample, *scheme,
        "n1=" + std::to_string(params.n1) + ",n2=" + std::to_string(params.n2),
        params.SignaturesPerSet(), scale));
  }
  return rows;
}

// The exhaustive argmin: lowest F2, then fewest signatures per set, then
// the first row.
size_t ReferenceArgmin(const std::vector<ReferenceRow>& rows) {
  size_t best = 0;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].f2 < rows[best].f2 ||
        (rows[i].f2 == rows[best].f2 &&
         rows[i].signatures_per_set < rows[best].signatures_per_set)) {
      best = i;
    }
  }
  return best;
}

// Checks a search's trace row by row against the exhaustive reference:
// an unpruned row equals it exactly; a row is pruned exactly when its
// reference F2 is strictly above the minimum of the earlier rows, and
// then it holds a lower bound (S and C at most the reference's) whose F2
// is above that minimum; the one chosen row is the reference argmin.
void ExpectTraceMatchesReference(const obs::AdvisorTrace& trace,
                                 const std::vector<ReferenceRow>& reference) {
  ASSERT_EQ(trace.candidates.size(), reference.size());
  ASSERT_FALSE(reference.empty());
  double earlier_min = std::numeric_limits<double>::infinity();
  size_t chosen_rows = 0;
  for (size_t i = 0; i < reference.size(); ++i) {
    const obs::AdvisorCandidate& row = trace.candidates[i];
    const ReferenceRow& ref = reference[i];
    EXPECT_EQ(row.label, ref.label);
    EXPECT_EQ(row.signatures_per_set, ref.signatures_per_set) << ref.label;
    EXPECT_EQ(row.pruned, ref.f2 > earlier_min) << ref.label;
    if (row.pruned) {
      EXPECT_LE(row.sample_signatures, ref.stats.signatures) << ref.label;
      EXPECT_LE(row.sample_collisions, ref.stats.collisions) << ref.label;
      EXPECT_GT(row.predicted_f2, earlier_min) << ref.label;
      EXPECT_FALSE(row.chosen) << ref.label;
    } else {
      EXPECT_EQ(row.sample_signatures, ref.stats.signatures) << ref.label;
      EXPECT_EQ(row.sample_collisions, ref.stats.collisions) << ref.label;
      EXPECT_EQ(row.predicted_f2, ref.f2) << ref.label;
    }
    EXPECT_EQ(row.predicted_f2,
              row.predicted_signatures + row.predicted_collisions)
        << ref.label;
    if (row.chosen) ++chosen_rows;
    earlier_min = std::min(earlier_min, ref.f2);
  }
  ASSERT_EQ(chosen_rows, 1u);
  ASSERT_NE(trace.Chosen(), nullptr);
  EXPECT_EQ(trace.Chosen()->label, reference[ReferenceArgmin(reference)].label);
}

TEST(AdvisorTest, TraceRowsMatchTheValidSettingsInOrder) {
  SetCollection input = Synthetic(400);
  obs::AdvisorTrace trace;
  AdvisorOptions options;
  options.sample_size = 200;
  options.max_signatures_per_set = kTestSignatureCap;
  options.trace = &trace;
  ASSERT_TRUE(ChoosePartEnumParams(input, 6, 0, options).ok());
  std::vector<PartEnumParams> settings =
      PartEnumParams::EnumerateValid(6, kTestSignatureCap, options.seed);
  ASSERT_GT(settings.size(), 1u);
  ASSERT_EQ(trace.candidates.size(), settings.size());
  for (size_t i = 0; i < settings.size(); ++i) {
    EXPECT_TRUE(settings[i].Validate().ok());
    EXPECT_EQ(trace.candidates[i].label,
              "n1=" + std::to_string(settings[i].n1) +
                  ",n2=" + std::to_string(settings[i].n2));
    EXPECT_EQ(trace.candidates[i].signatures_per_set,
              settings[i].SignaturesPerSet());
  }
  EXPECT_EQ(trace.method, "partenum");
  EXPECT_EQ(trace.sample_size, 200u);
  EXPECT_EQ(trace.target_input_size, input.size());
}

// With the AMS sketch, C is known only once a setting's whole sample is
// added, so the search prunes on the signature term alone: a pruned row
// carries no collisions and its S already exceeds the best before it.
TEST(AdvisorTest, SketchSearchPrunesOnSignaturesOnly) {
  SetCollection input = Synthetic(400);
  obs::AdvisorTrace trace;
  AdvisorOptions options;
  options.sample_size = 200;
  options.max_signatures_per_set = kTestSignatureCap;
  options.use_ams_sketch = true;
  options.trace = &trace;
  auto best = ChoosePartEnumParams(input, 6, 50000, options);
  ASSERT_TRUE(best.ok());
  std::vector<ReferenceRow> reference =
      PartEnumReference(input, 6, 50000, options);
  ASSERT_EQ(trace.candidates.size(), reference.size());
  double earlier_best = std::numeric_limits<double>::infinity();
  size_t pruned = 0;
  for (size_t i = 0; i < reference.size(); ++i) {
    const obs::AdvisorCandidate& row = trace.candidates[i];
    if (row.pruned) {
      ++pruned;
      EXPECT_LE(row.sample_signatures, reference[i].stats.signatures);
      EXPECT_EQ(row.sample_collisions, 0) << row.label;
      EXPECT_GT(row.predicted_signatures, earlier_best) << row.label;
    } else {
      EXPECT_EQ(row.sample_signatures, reference[i].stats.signatures);
      earlier_best = std::min(earlier_best, row.predicted_f2);
    }
  }
  EXPECT_GT(pruned, 0u);
  ASSERT_NE(trace.Chosen(), nullptr);
  EXPECT_EQ(trace.Chosen()->predicted_f2, earlier_best);
  EXPECT_EQ(best->estimated_f2, earlier_best);
}

TEST(AdvisorTest, ChooseReturnsBest) {
  SetCollection input = Synthetic(400);
  obs::AdvisorTrace trace;
  AdvisorOptions options;
  options.max_signatures_per_set = kTestSignatureCap;
  options.trace = &trace;
  auto best = ChoosePartEnumParams(input, 6, 0, options);
  ASSERT_TRUE(best.ok());
  std::vector<ReferenceRow> reference =
      PartEnumReference(input, 6, input.size(), options);
  const ReferenceRow& argmin = reference[ReferenceArgmin(reference)];
  EXPECT_EQ("n1=" + std::to_string(best->params.n1) +
                ",n2=" + std::to_string(best->params.n2),
            argmin.label);
  EXPECT_EQ(best->estimated_f2, argmin.f2);
  EXPECT_EQ(best->signatures_per_set, argmin.signatures_per_set);
  ExpectTraceMatchesReference(trace, reference);
}

TEST(AdvisorTest, LshChoicesRespectAccuracy) {
  SetCollection input = Synthetic(300);
  obs::AdvisorTrace trace;
  AdvisorOptions options;
  options.trace = &trace;
  const uint32_t max_g = 6;
  auto best = ChooseLshParams(input, 0.8, 0.05, max_g, 0, options);
  ASSERT_TRUE(best.ok());

  SetCollection sample = input.Sample(options.sample_size, options.seed);
  const double scale =
      static_cast<double>(input.size()) / static_cast<double>(sample.size());
  std::vector<ReferenceRow> reference;
  for (uint32_t g = 1; g <= max_g; ++g) {
    LshParams params = LshParams::ForAccuracy(0.8, 0.05, g, options.seed);
    // Every candidate must reach >= 95% recall at similarity 0.8.
    EXPECT_GE(params.CollisionProbability(0.8), 0.95 - 1e-9);
    auto scheme = LshScheme::Create(params);
    ASSERT_TRUE(scheme.ok());
    reference.push_back(ScoreReference(
        sample, *scheme,
        "g=" + std::to_string(params.g) + ",l=" + std::to_string(params.l),
        params.l, scale));
  }
  EXPECT_EQ(trace.method, "lsh");
  ExpectTraceMatchesReference(trace, reference);
  EXPECT_EQ(best->params.g, ReferenceArgmin(reference) + 1);
  EXPECT_GE(best->params.CollisionProbability(0.8), 0.95 - 1e-9);
}

TEST(AdvisorTest, PartEnumTraceRowsMatchNaiveReference) {
  SetCollection input = Synthetic(600);
  const uint32_t k = 6;
  const size_t target = 50000;
  for (uint64_t cap : {64u, 512u}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    obs::AdvisorTrace trace;
    AdvisorOptions options;
    options.sample_size = 300;
    options.max_signatures_per_set = cap;
    options.trace = &trace;
    auto best = ChoosePartEnumParams(input, k, target, options);
    ASSERT_TRUE(best.ok());
    ExpectTraceMatchesReference(trace,
                                PartEnumReference(input, k, target, options));
    ASSERT_NE(trace.Chosen(), nullptr);
    EXPECT_EQ(trace.Chosen()->label,
              "n1=" + std::to_string(best->params.n1) +
                  ",n2=" + std::to_string(best->params.n2));
  }
}

}  // namespace
}  // namespace ssjoin
