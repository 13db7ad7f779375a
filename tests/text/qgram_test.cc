#include "text/qgram.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "text/edit_distance.h"
#include "util/sorted_sets.h"
#include "util/random.h"
#include "data/generators.h"

namespace ssjoin {
namespace {

TEST(QgramTest, PaperExampleTrigramsUnpadded) {
  // Example 1: the 3-gram sets of washington / woshington.
  QgramExtractor extractor(QgramOptions{.q = 3, .pad = false});
  std::vector<std::string> grams = extractor.Grams("washington");
  ASSERT_EQ(grams.size(), 8u);
  EXPECT_EQ(grams.front(), "was");
  EXPECT_EQ(grams.back(), "ton");

  // Hamming distance between the gram sets is 4 (paper Example 1).
  std::vector<ElementId> s1 = extractor.Extract("washington");
  std::vector<ElementId> s2 = extractor.Extract("woshington");
  std::sort(s1.begin(), s1.end());
  std::sort(s2.begin(), s2.end());
  EXPECT_EQ(SparseHammingDistance(s1, s2), 4u);
  EXPECT_EQ(SortedIntersectionSize(s1, s2), 6u);  // jaccard 6/10 (Example 2)
}

TEST(QgramTest, PaddingAddsBoundaryGrams) {
  QgramExtractor extractor(QgramOptions{.q = 3, .pad = true});
  std::vector<std::string> grams = extractor.Grams("ab");
  // padded: ".." + "ab" + ".." (sentinels) => length 6 => 4 grams.
  EXPECT_EQ(grams.size(), 4u);
}

TEST(QgramTest, UnigramFastPath) {
  QgramExtractor extractor(QgramOptions{.q = 1});
  std::vector<ElementId> grams = extractor.Extract("aba");
  ASSERT_EQ(grams.size(), 3u);
  EXPECT_EQ(grams[0], static_cast<ElementId>('a'));
  EXPECT_EQ(grams[1], static_cast<ElementId>('b'));
  EXPECT_EQ(grams[0], grams[2]);
}

TEST(QgramTest, EmptyString) {
  QgramExtractor q1(QgramOptions{.q = 1});
  EXPECT_TRUE(q1.Extract("").empty());
  QgramExtractor q3(QgramOptions{.q = 3, .pad = false});
  EXPECT_TRUE(q3.Extract("").empty());
}

TEST(QgramTest, ShortStringUnpadded) {
  QgramExtractor q3(QgramOptions{.q = 3, .pad = false});
  std::vector<std::string> grams = q3.Grams("ab");
  ASSERT_EQ(grams.size(), 1u);  // whole string as one gram
  EXPECT_EQ(grams[0], "ab");
}

TEST(QgramTest, BagsKeepMultiplicity) {
  QgramExtractor extractor(QgramOptions{.q = 1});
  SetCollection bags = extractor.ExtractAllAsBags({"aaa", "a", "ab"});
  // "aaa" has three distinct encoded occurrences of 'a'.
  EXPECT_EQ(bags.set_size(0), 3u);
  EXPECT_EQ(bags.set_size(1), 1u);
  // "a" and "aaa" share exactly one encoded element (first occurrence).
  EXPECT_EQ(SortedIntersectionSize(bags.set(0), bags.set(1)), 1u);
}

// Property: edit distance k implies q-gram bag hamming distance <= 2qk
// (the bound the string join relies on for completeness).
class QgramBoundTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(QgramBoundTest, EditDistanceImpliesHammingBound) {
  uint32_t q = GetParam();
  QgramExtractor extractor(QgramOptions{.q = q});
  Rng rng(100 + q);
  for (int trial = 0; trial < 300; ++trial) {
    // Random base string, random edits.
    std::string base;
    uint32_t len = 5 + rng.Uniform(30);
    for (uint32_t i = 0; i < len; ++i) {
      base.push_back(static_cast<char>('a' + rng.Uniform(6)));
    }
    uint32_t k = 1 + rng.Uniform(3);
    std::string mutated = InjectTypos(base, k, rng);
    // InjectTypos applies k operations, each of edit cost <= 2
    // (transpose = 2 substitutions in the unit-cost model).
    uint32_t actual_k = EditDistance(base, mutated);

    SetCollectionBuilder builder;
    builder.AddBag(extractor.Extract(base));
    builder.AddBag(extractor.Extract(mutated));
    SetCollection bags = builder.Build();
    uint32_t hd = SparseHammingDistance(bags.set(0), bags.set(1));
    EXPECT_LE(hd, extractor.HammingBound(actual_k))
        << "q=" << q << " base=" << base << " mutated=" << mutated;
  }
}

INSTANTIATE_TEST_SUITE_P(AllQ, QgramBoundTest,
                         ::testing::Values(1u, 2u, 3u, 5u));

}  // namespace
}  // namespace ssjoin
