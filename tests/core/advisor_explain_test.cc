// Advisor accountability (DESIGN.md Section 9): the numbers the
// parameter advisor publishes into an ExplainReport must be honest.
// On a full-input sample (scale = 1) the chosen candidate's predicted
// signature / collision / F2 counts are exact — the drift ratios the
// driver fills in afterwards come out at 1.0 — and the signature count
// itself matches the paper's Theorem 2 accounting (2 * N * |Sign(s)|
// for a self-join). On a real subsample the predictions are estimates,
// but they must stay finite and inside a sane band.

#include <gtest/gtest.h>

#include <cmath>

#include "core/parameter_advisor.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "data/collection.h"
#include "obs/explain.h"
#include "util/random.h"
#include "util/zipf.h"

namespace ssjoin {
namespace {

// Synthetic skewed workload: fixed-size sets whose elements follow a
// Zipf distribution, like real token vocabularies. The skew guarantees
// signature collisions (the interesting part of the drift accounting).
SetCollection ZipfCollection(size_t num_sets, uint32_t set_size,
                             uint32_t domain, double theta, uint64_t seed) {
  Rng rng(seed);
  ZipfSampler sampler(domain, theta);
  SetCollectionBuilder builder;
  std::vector<ElementId> elements;
  for (size_t i = 0; i < num_sets; ++i) {
    elements.clear();
    while (elements.size() < set_size) {
      ElementId e = sampler.Sample(rng);
      if (std::find(elements.begin(), elements.end(), e) ==
          elements.end()) {
        elements.push_back(e);
      }
    }
    builder.Add(elements);
  }
  return builder.Build();
}

// Runs the chosen scheme over the full input with the report attached,
// so FinishJoin fills the actual side of every drift entry.
void RunChosen(const SetCollection& input, const PartEnumChoice& choice,
               uint32_t k, obs::ExplainReport* report) {
  auto scheme = PartEnumScheme::Create(choice.params);
  ASSERT_TRUE(scheme.ok()) << scheme.status().ToString();
  HammingPredicate predicate(k);
  JoinOptions options;
  options.explain = report;
  JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate, options));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
}

TEST(AdvisorExplainTest, FullSamplePredictionsMatchActuals) {
  SetCollection input = ZipfCollection(500, 24, 4000, 0.8, 17);
  const uint32_t k = 6;

  obs::AdvisorTrace trace;
  AdvisorOptions options;
  options.sample_size = input.size();  // sample == input: scale is 1
  // The chosen (7,8) spends 7 signatures/set; the uncapped 4096 search
  // only adds seconds.
  options.max_signatures_per_set = 128;
  options.trace = &trace;
  auto choice = ChoosePartEnumParams(input, k, 0, options);
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();

  // The search table marks exactly one winner, and it is the choice.
  size_t chosen = 0;
  for (const obs::AdvisorCandidate& candidate : trace.candidates) {
    if (candidate.chosen) ++chosen;
  }
  EXPECT_EQ(chosen, 1u);
  ASSERT_NE(trace.Chosen(), nullptr);
  EXPECT_EQ(trace.Chosen()->label,
            "n1=" + std::to_string(choice->params.n1) +
                ",n2=" + std::to_string(choice->params.n2));
  EXPECT_EQ(trace.sample_size, input.size());

  obs::ExplainReport report;
  obs::AttachAdvisorTrace(&report, trace);
  RunChosen(input, *choice, k, &report);

  // With no sampling the advisor counted the real signatures, so the
  // drift ratios are 1 up to float rounding.
  const obs::DriftEntry* signatures = report.Find("join.signatures");
  const obs::DriftEntry* collisions =
      report.Find("join.signature_collisions");
  const obs::DriftEntry* f2 = report.Find("join.f2");
  ASSERT_NE(signatures, nullptr);
  ASSERT_NE(collisions, nullptr);
  ASSERT_NE(f2, nullptr);
  ASSERT_TRUE(signatures->has_predicted && signatures->has_actual);
  EXPECT_NEAR(signatures->Ratio(), 1.0, 1e-9);
  ASSERT_GT(collisions->actual, 0)
      << "the Zipf skew is supposed to force signature collisions";
  EXPECT_NEAR(collisions->Ratio(), 1.0, 1e-9);
  EXPECT_NEAR(f2->Ratio(), 1.0, 1e-9);

  // Theorem 2: a self-join generates |Sign(s)| signatures per set per
  // side — 2 * N * signatures_per_set in total (minus the rare in-set
  // hash duplicate, hence the 2% band instead of exact equality).
  double theorem2 = 2.0 * static_cast<double>(input.size()) *
                    static_cast<double>(choice->signatures_per_set);
  EXPECT_NEAR(signatures->actual, theorem2, 0.02 * theorem2);

  // Nothing in the report may be non-finite.
  for (const obs::DriftEntry& entry : report.drift) {
    if (entry.has_predicted && entry.has_actual) {
      EXPECT_TRUE(std::isfinite(entry.Ratio())) << entry.name;
    }
  }
}

TEST(AdvisorExplainTest, SubsampledPredictionsStayInBand) {
  SetCollection input = ZipfCollection(600, 24, 4000, 0.8, 23);
  const uint32_t k = 6;

  obs::AdvisorTrace trace;
  AdvisorOptions options;
  options.sample_size = input.size() / 4;
  options.trace = &trace;
  auto choice = ChoosePartEnumParams(input, k, 0, options);
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_EQ(trace.sample_size, input.size() / 4);

  obs::ExplainReport report;
  obs::AttachAdvisorTrace(&report, trace);
  RunChosen(input, *choice, k, &report);

  // Estimates now carry sampling error, but they are extrapolations of
  // real counts: finite, positive, and within a factor-2 band for the
  // linearly-scaled signature count (the per-set count barely varies)
  // and the signature-dominated F2.
  const obs::DriftEntry* signatures = report.Find("join.signatures");
  const obs::DriftEntry* f2 = report.Find("join.f2");
  ASSERT_NE(signatures, nullptr);
  ASSERT_NE(f2, nullptr);
  double sig_ratio = signatures->Ratio();
  ASSERT_TRUE(std::isfinite(sig_ratio));
  EXPECT_GT(sig_ratio, 0.9);
  EXPECT_LT(sig_ratio, 1.1);
  double f2_ratio = f2->Ratio();
  ASSERT_TRUE(std::isfinite(f2_ratio));
  EXPECT_GT(f2_ratio, 0.5);
  EXPECT_LT(f2_ratio, 2.0);
  for (const obs::DriftEntry& entry : report.drift) {
    if (entry.has_predicted && entry.has_actual) {
      EXPECT_TRUE(std::isfinite(entry.Ratio())) << entry.name;
    }
  }
}

}  // namespace
}  // namespace ssjoin
