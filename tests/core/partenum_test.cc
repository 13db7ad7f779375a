#include "core/partenum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/sorted_sets.h"
#include "util/random.h"

namespace ssjoin {
namespace {

bool ShareSignature(const PartEnumScheme& scheme,
                    std::span<const ElementId> a,
                    std::span<const ElementId> b) {
  std::vector<Signature> sa = scheme.Signatures(a);
  std::vector<Signature> sb = scheme.Signatures(b);
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  std::vector<Signature> shared;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(shared));
  return !shared.empty();
}

TEST(PartEnumParamsTest, K2Definition) {
  // k2 = ceil((k+1)/n1) - 1 (Figure 3).
  PartEnumParams params;
  params.k = 5;
  params.n1 = 3;
  EXPECT_EQ(params.k2(), 1u);  // ceil(6/3)-1 = 1
  params.n1 = 2;
  EXPECT_EQ(params.k2(), 2u);  // ceil(6/2)-1 = 2
  params.k = 3;
  params.n1 = 2;
  EXPECT_EQ(params.k2(), 1u);
  params.k = 0;
  params.n1 = 1;
  EXPECT_EQ(params.k2(), 0u);
}

TEST(PartEnumParamsTest, SignatureCountPaperExampleThree) {
  // Example 3: n1=3, n2=4, k=5 => 12 signatures per vector.
  PartEnumParams params;
  params.k = 5;
  params.n1 = 3;
  params.n2 = 4;
  ASSERT_TRUE(params.Validate().ok());
  EXPECT_EQ(params.SignaturesPerSet(), 12u);
}

TEST(PartEnumParamsTest, SignatureCountPaperExampleFour) {
  // Example 4: n1=2, n2=3, k=3 => six signatures.
  PartEnumParams params;
  params.k = 3;
  params.n1 = 2;
  params.n2 = 3;
  ASSERT_TRUE(params.Validate().ok());
  EXPECT_EQ(params.SignaturesPerSet(), 6u);
}

TEST(PartEnumParamsTest, ValidationRejectsBadShapes) {
  PartEnumParams params;
  params.k = 3;
  params.n1 = 5;  // n1 > k+1
  params.n2 = 4;
  EXPECT_FALSE(params.Validate().ok());
  params.n1 = 2;
  params.n2 = 2;  // n1*n2 = 4 <= k+1 = 4
  EXPECT_FALSE(params.Validate().ok());
  params.n2 = 3;
  EXPECT_TRUE(params.Validate().ok());
  params.n1 = 0;
  EXPECT_FALSE(params.Validate().ok());
}

TEST(PartEnumParamsTest, DefaultIsValidForAllK) {
  for (uint32_t k = 0; k <= 64; ++k) {
    PartEnumParams params = PartEnumParams::Default(k);
    EXPECT_TRUE(params.Validate().ok()) << "k=" << k;
    EXPECT_LE(params.k2(), 1u) << "k=" << k;  // hybrid configuration
  }
}

// A chooser's shape tuned for another threshold is fitted, not rejected:
// a valid shape is kept, n1 is clamped to k + 1 and n2 raised to the
// smallest value with n1 * n2 > k + 1.
TEST(PartEnumParamsTest, FittedToMakesAnyShapeValid) {
  PartEnumParams shape;
  shape.n1 = 3;
  shape.n2 = 4;
  PartEnumParams kept = shape.FittedTo(5, 17);
  EXPECT_EQ(kept.k, 5u);
  EXPECT_EQ(kept.seed, 17u);
  EXPECT_EQ(kept.n1, 3u);
  EXPECT_EQ(kept.n2, 4u);

  shape.n1 = 9;
  shape.n2 = 0;
  PartEnumParams fitted = shape.FittedTo(2, 17);
  EXPECT_EQ(fitted.n1, 3u);  // k + 1
  EXPECT_EQ(fitted.n2, 2u);  // smallest n2 with 3 * n2 > 3
  for (uint32_t k = 0; k <= 20; ++k) {
    for (uint32_t n1 = 0; n1 <= 25; n1 += 5) {
      for (uint32_t n2 = 0; n2 <= 4; ++n2) {
        shape.n1 = n1;
        shape.n2 = n2;
        EXPECT_TRUE(shape.FittedTo(k, 1).Validate().ok())
            << "k=" << k << " n1=" << n1 << " n2=" << n2;
      }
    }
  }
}

TEST(PartEnumParamsTest, EnumerateValidRespectsBudgetAndValidity) {
  std::vector<PartEnumParams> all =
      PartEnumParams::EnumerateValid(5, 100, 1);
  EXPECT_FALSE(all.empty());
  for (const PartEnumParams& params : all) {
    EXPECT_TRUE(params.Validate().ok());
    EXPECT_LE(params.SignaturesPerSet(), 100u);
    EXPECT_EQ(params.k, 5u);
  }
  // Must include the Example 3 shape (12 signatures <= 100).
  bool found = false;
  for (const PartEnumParams& params : all) {
    if (params.n1 == 3 && params.n2 == 4) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PartEnumSchemeTest, SignatureCountMatchesFormula) {
  Rng rng(7);
  for (uint32_t k : {0u, 1u, 3u, 5u, 8u}) {
    for (const PartEnumParams& params :
         PartEnumParams::EnumerateValid(k, 300, 11)) {
      auto scheme = PartEnumScheme::Create(params);
      ASSERT_TRUE(scheme.ok());
      std::vector<uint32_t> set = SampleWithoutReplacement(1000, 30, rng);
      std::sort(set.begin(), set.end());
      std::vector<Signature> sigs = scheme->Signatures(set);
      EXPECT_EQ(sigs.size(), params.SignaturesPerSet());
    }
  }
}

TEST(PartEnumSchemeTest, IdenticalSetsShareAllSignatures) {
  PartEnumParams params = PartEnumParams::Default(4);
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  std::vector<ElementId> set = {10, 20, 30, 40, 50};
  EXPECT_EQ(scheme->Signatures(set), scheme->Signatures(set));
}

TEST(PartEnumSchemeTest, PartitionAssignmentStable) {
  PartEnumParams params = PartEnumParams::Default(5);
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  for (ElementId e : {0u, 1u, 999999u}) {
    uint32_t p = scheme->PartitionOf(e);
    EXPECT_EQ(p, scheme->PartitionOf(e));
    EXPECT_LT(p, params.n1 * params.n2);
  }
}

TEST(PartEnumSchemeTest, DifferentSeedsDifferentSignatures) {
  PartEnumParams a = PartEnumParams::Default(3);
  PartEnumParams b = a;
  b.seed = a.seed + 1;
  auto sa = PartEnumScheme::Create(a);
  auto sb = PartEnumScheme::Create(b);
  std::vector<ElementId> set = {1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_NE(sa->Signatures(set), sb->Signatures(set));
}

TEST(PartEnumSchemeTest, RejectsOversizedConfigurations) {
  PartEnumParams params;
  params.k = 40;
  params.n1 = 1;
  params.n2 = 60;
  EXPECT_FALSE(PartEnumScheme::Create(params).ok());
}

// ---------------------------------------------------------------------------
// Theorem 1 (completeness): Hd(u, v) <= k implies shared signature —
// property-tested across parameter shapes, set sizes and seeds.

struct Theorem1Case {
  uint32_t k;
  uint32_t n1;
  uint32_t n2;
  uint32_t domain;
  uint32_t set_size;
};

class Theorem1Test : public ::testing::TestWithParam<Theorem1Case> {};

TEST_P(Theorem1Test, CloseSetsAlwaysShareASignature) {
  const Theorem1Case& c = GetParam();
  PartEnumParams params;
  params.k = c.k;
  params.n1 = c.n1;
  params.n2 = c.n2;
  params.seed = 0xABCDEF;
  ASSERT_TRUE(params.Validate().ok());
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());

  Rng rng(c.k * 1000 + c.n1 * 100 + c.n2 * 10 + c.set_size);
  for (int trial = 0; trial < 120; ++trial) {
    // Build a base set and a perturbation at hamming distance d <= k.
    std::vector<uint32_t> base =
        SampleWithoutReplacement(c.domain, c.set_size, rng);
    std::sort(base.begin(), base.end());
    std::set<ElementId> other(base.begin(), base.end());
    uint32_t d = rng.Uniform(c.k + 1);
    // Apply d single-element changes (add or remove), each changing the
    // hamming distance by exactly 1.
    for (uint32_t step = 0; step < d; ++step) {
      if (!other.empty() && rng.Bernoulli(0.5)) {
        auto it = other.begin();
        std::advance(it, rng.Uniform(static_cast<uint32_t>(other.size())));
        other.erase(it);
      } else {
        ElementId fresh = rng.Uniform(c.domain);
        while (other.count(fresh) ||
               std::binary_search(base.begin(), base.end(), fresh)) {
          fresh = (fresh + 1) % c.domain;
        }
        other.insert(fresh);
      }
    }
    std::vector<ElementId> mutated(other.begin(), other.end());
    uint32_t hd = SparseHammingDistance(base, mutated);
    ASSERT_LE(hd, c.k);
    EXPECT_TRUE(ShareSignature(*scheme, base, mutated))
        << "k=" << c.k << " n1=" << c.n1 << " n2=" << c.n2 << " hd=" << hd;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Theorem1Test,
    ::testing::Values(Theorem1Case{0, 1, 2, 100, 10},
                      Theorem1Case{1, 1, 3, 100, 10},
                      Theorem1Case{2, 1, 4, 50, 8},
                      Theorem1Case{3, 2, 3, 100, 12},
                      Theorem1Case{3, 4, 2, 100, 12},
                      Theorem1Case{5, 3, 4, 200, 20},   // paper Example 3
                      Theorem1Case{3, 2, 3, 1000000, 15},  // huge domain
                      Theorem1Case{5, 2, 4, 100, 30},
                      Theorem1Case{5, 6, 2, 100, 30},
                      Theorem1Case{7, 4, 3, 300, 25},
                      Theorem1Case{8, 3, 4, 300, 25},
                      Theorem1Case{10, 5, 4, 500, 40}));

// Mutating more than k elements *may* (and usually does, for good
// parameters) break signature sharing — sanity check that filtering does
// something at all.
TEST(PartEnumSchemeTest, VeryDistantSetsUsuallyDoNotCollide) {
  PartEnumParams params;
  params.k = 2;
  params.n1 = 1;
  params.n2 = 8;
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  Rng rng(321);
  int collisions = 0;
  constexpr int kTrials = 200;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<uint32_t> a = SampleWithoutReplacement(10000, 40, rng);
    std::vector<uint32_t> b = SampleWithoutReplacement(10000, 40, rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (SparseHammingDistance(a, b) <= 2 * params.k) continue;
    if (ShareSignature(*scheme, a, b)) ++collisions;
  }
  EXPECT_LT(collisions, kTrials / 10);
}

}  // namespace
}  // namespace ssjoin
