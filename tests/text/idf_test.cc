#include "text/idf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "util/random.h"

namespace ssjoin {
namespace {

SetCollection MakeCollection() {
  // Element 1 in all 4 sets, element 2 in 2 sets, element 3 in 1 set.
  return SetCollection::FromVectors({{1, 2, 3}, {1, 2}, {1}, {1}});
}

TEST(IdfTest, DocumentFrequencies) {
  IdfWeights idf = IdfWeights::Compute(MakeCollection());
  EXPECT_EQ(idf.num_documents(), 4u);
  EXPECT_EQ(idf.DocumentFrequency(1), 4u);
  EXPECT_EQ(idf.DocumentFrequency(2), 2u);
  EXPECT_EQ(idf.DocumentFrequency(3), 1u);
  EXPECT_EQ(idf.DocumentFrequency(99), 0u);
}

TEST(IdfTest, WeightsAreLogNOverDf) {
  IdfWeights idf = IdfWeights::Compute(MakeCollection());
  EXPECT_NEAR(idf.Weight(1), std::log(4.0 / 4.0), 1e-12);
  EXPECT_NEAR(idf.Weight(2), std::log(4.0 / 2.0), 1e-12);
  EXPECT_NEAR(idf.Weight(3), std::log(4.0 / 1.0), 1e-12);
}

TEST(IdfTest, UnseenElementsAreRarest) {
  IdfWeights idf = IdfWeights::Compute(MakeCollection());
  EXPECT_GT(idf.Weight(99), idf.Weight(3));
}

TEST(IdfTest, RarerMeansHeavier) {
  IdfWeights idf = IdfWeights::Compute(MakeCollection());
  EXPECT_GT(idf.Weight(3), idf.Weight(2));
  EXPECT_GT(idf.Weight(2), idf.Weight(1));
}

TEST(IdfTest, BinaryJoinCombinesBothSides) {
  SetCollection r = SetCollection::FromVectors({{1}, {1, 2}});
  SetCollection s = SetCollection::FromVectors({{2}, {3}});
  IdfWeights idf = IdfWeights::Compute(r, s);
  EXPECT_EQ(idf.num_documents(), 4u);
  EXPECT_EQ(idf.DocumentFrequency(1), 2u);
  EXPECT_EQ(idf.DocumentFrequency(2), 2u);
  EXPECT_EQ(idf.DocumentFrequency(3), 1u);
}

TEST(IdfTest, DefaultPruningThreshold) {
  IdfWeights idf = IdfWeights::Compute(MakeCollection());
  EXPECT_NEAR(idf.DefaultPruningThreshold(), std::log(4.0), 1e-12);
}

// ---------------------------------------------------------------------------
// Exactness of the precomputed table against a hash-map reference.

constexpr ElementId kMaxId = std::numeric_limits<ElementId>::max();

// A seeded random collection over a mix of a small dense domain (high
// document frequencies) and the full 32-bit range (mostly df 1). With
// `with_extremes`, every 7th set also holds the keys 0 and UINT32_MAX;
// without, both are filtered out.
std::vector<std::vector<ElementId>> RandomSets(uint64_t seed, int n,
                                               bool with_extremes) {
  Rng rng(seed);
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < n; ++i) {
    std::vector<ElementId> set;
    uint32_t size = rng.Uniform(12);
    for (uint32_t j = 0; j < size; ++j) {
      set.push_back(rng.Bernoulli(0.7) ? rng.Uniform(2000) : rng.Next32());
    }
    if (with_extremes && i % 7 == 0) {
      set.push_back(0);
      set.push_back(kMaxId);
    }
    if (!with_extremes) {
      std::erase_if(set, [](ElementId e) { return e == 0 || e == kMaxId; });
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

using Reference = std::unordered_map<ElementId, uint32_t>;

void AddToReference(const SetCollection& collection, Reference* ref) {
  for (SetId id = 0; id < collection.size(); ++id) {
    for (ElementId e : collection.set(id)) ++(*ref)[e];
  }
}

// Every seen element must match the reference bit for bit; the extreme
// keys and a batch of random probes (mostly unseen) are checked too.
void ExpectMatchesReference(const IdfWeights& idf, const Reference& ref,
                            size_t num_documents, uint64_t probe_seed) {
  ASSERT_EQ(idf.num_documents(), num_documents);
  double n = std::max<double>(1.0, static_cast<double>(num_documents));
  auto expect_element = [&](ElementId e) {
    auto it = ref.find(e);
    uint32_t df = it == ref.end() ? 0 : it->second;
    EXPECT_EQ(idf.DocumentFrequency(e), df) << "element " << e;
    double expected = df == 0 ? std::log(n * 2.0)
                              : std::log(n / static_cast<double>(df));
    EXPECT_EQ(idf.Weight(e), expected) << "element " << e;
  };
  for (const auto& [e, df] : ref) expect_element(e);
  expect_element(0);
  expect_element(kMaxId);
  Rng rng(probe_seed);
  for (int i = 0; i < 20000; ++i) expect_element(rng.Next32());
  for (ElementId e = 0; e < 2100; ++e) expect_element(e);
}

TEST(IdfTest, TableMatchesReferenceWithExtremeKeysPresent) {
  SetCollection input =
      SetCollection::FromVectors(RandomSets(101, 10000, true));
  Reference ref;
  AddToReference(input, &ref);
  ASSERT_GT(ref.count(0), 0u);
  ASSERT_GT(ref.count(kMaxId), 0u);
  IdfWeights idf = IdfWeights::Compute(input);
  ExpectMatchesReference(idf, ref, input.size(), 1);
}

TEST(IdfTest, TableMatchesReferenceWithExtremeKeysAbsent) {
  SetCollection input =
      SetCollection::FromVectors(RandomSets(102, 10000, false));
  Reference ref;
  AddToReference(input, &ref);
  ASSERT_EQ(ref.count(0), 0u);
  ASSERT_EQ(ref.count(kMaxId), 0u);
  IdfWeights idf = IdfWeights::Compute(input);
  ExpectMatchesReference(idf, ref, input.size(), 2);
  // Unseen elements are exactly log(2N).
  double unseen = std::log(static_cast<double>(input.size()) * 2.0);
  EXPECT_EQ(idf.Weight(0), unseen);
  EXPECT_EQ(idf.Weight(kMaxId), unseen);
}

TEST(IdfTest, TableMatchesReferenceForBinaryCompute) {
  SetCollection r = SetCollection::FromVectors(RandomSets(103, 6000, true));
  SetCollection s = SetCollection::FromVectors(RandomSets(104, 4000, false));
  Reference ref;
  AddToReference(r, &ref);
  AddToReference(s, &ref);
  IdfWeights idf = IdfWeights::Compute(r, s);
  ExpectMatchesReference(idf, ref, r.size() + s.size(), 3);
}

TEST(IdfTest, EmptyCollection) {
  SetCollection empty;
  IdfWeights idf = IdfWeights::Compute(empty);
  ExpectMatchesReference(idf, Reference{}, 0, 4);
  EXPECT_EQ(idf.Weight(0), std::log(2.0));
  EXPECT_EQ(idf.Weight(kMaxId), std::log(2.0));
  IdfWeights both = IdfWeights::Compute(empty, empty);
  ExpectMatchesReference(both, Reference{}, 0, 5);
  // Only empty sets: documents are counted, no element is seen.
  SetCollection blanks = SetCollection::FromVectors({{}, {}, {}});
  IdfWeights idf_blanks = IdfWeights::Compute(blanks);
  ExpectMatchesReference(idf_blanks, Reference{}, 3, 6);
}

}  // namespace
}  // namespace ssjoin
