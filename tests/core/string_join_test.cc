#include "core/string_join.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "text/edit_distance.h"
#include "util/random.h"

namespace ssjoin {
namespace {

std::vector<SetPair> BruteForceEditJoin(
    const std::vector<std::string>& strings, uint32_t k) {
  std::vector<SetPair> out;
  for (uint32_t i = 0; i < strings.size(); ++i) {
    for (uint32_t j = i + 1; j < strings.size(); ++j) {
      if (WithinEditDistance(strings[i], strings[j], k)) {
        out.emplace_back(i, j);
      }
    }
  }
  return out;
}

TEST(StringJoinTest, HammingThresholdFormula) {
  EXPECT_EQ(QgramHammingThreshold(1, 1), 2u);
  EXPECT_EQ(QgramHammingThreshold(3, 2), 12u);
}

TEST(StringJoinTest, RejectsZeroQ) {
  StringJoinOptions options;
  options.q = 0;
  EXPECT_FALSE(StringSimilaritySelfJoin({"a", "b"}, options).ok());
}

// 2*q*k = 2^32 does not fit the 32-bit hamming threshold. The join must
// refuse it: wrapped to 0, it would return no pairs although all three
// strings are within edit distance k.
TEST(StringJoinTest, RejectsHammingThresholdOverflow) {
  EXPECT_EQ(QgramHammingThreshold(4, 1u << 29), uint64_t{1} << 32);
  StringJoinOptions options;
  options.algorithm = StringJoinAlgorithm::kPrefixFilter;
  options.q = 4;
  options.edit_threshold = 1u << 29;
  auto result = StringSimilaritySelfJoin({"abcdef", "abcxyz", "qqqq"}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(StringJoinTest, TinyExample) {
  std::vector<std::string> strings = {"washington", "woshington",
                                      "washingtons", "seattle"};
  StringJoinOptions options;
  options.edit_threshold = 1;
  auto result = StringSimilaritySelfJoin(strings, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pairs, (std::vector<SetPair>{{0, 1}, {0, 2}}));
}

class StringJoinExactnessTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(StringJoinExactnessTest, PartEnumMatchesBruteForce) {
  auto [k, q] = GetParam();
  AddressOptions options;
  options.num_strings = 250;
  options.duplicate_fraction = 0.25;
  options.max_typos = 3;
  options.seed = 1000 + k * 10 + q;
  std::vector<std::string> strings = GenerateAddressStrings(options);

  StringJoinOptions join_options;
  join_options.edit_threshold = k;
  join_options.q = q;
  join_options.algorithm = StringJoinAlgorithm::kPartEnum;
  auto result = StringSimilaritySelfJoin(strings, join_options);
  ASSERT_TRUE(result.ok());
  std::vector<SetPair> expected = BruteForceEditJoin(strings, k);
  EXPECT_EQ(result->pairs, expected) << "k=" << k << " q=" << q;
  EXPECT_GT(result->pairs.size(), 0u) << "vacuous test";
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, StringJoinExactnessTest,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(2u, 1u),
                      std::make_tuple(3u, 1u), std::make_tuple(2u, 2u),
                      std::make_tuple(1u, 3u)));

TEST(StringJoinTest, PrefixFilterMatchesBruteForce) {
  AddressOptions options;
  options.num_strings = 200;
  options.duplicate_fraction = 0.25;
  options.max_typos = 2;
  std::vector<std::string> strings = GenerateAddressStrings(options);

  StringJoinOptions join_options;
  join_options.edit_threshold = 2;
  join_options.q = 4;  // the paper's optimal range for prefix filter
  join_options.algorithm = StringJoinAlgorithm::kPrefixFilter;
  auto result = StringSimilaritySelfJoin(strings, join_options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pairs, BruteForceEditJoin(strings, 2));
}

TEST(StringJoinTest, AlgorithmsAgree) {
  AddressOptions options;
  options.num_strings = 150;
  options.duplicate_fraction = 0.3;
  std::vector<std::string> strings = GenerateAddressStrings(options);
  StringJoinOptions pen, pf;
  pen.edit_threshold = pf.edit_threshold = 2;
  pen.q = 1;
  pen.algorithm = StringJoinAlgorithm::kPartEnum;
  pf.q = 5;
  pf.algorithm = StringJoinAlgorithm::kPrefixFilter;
  auto pen_result = StringSimilaritySelfJoin(strings, pen);
  auto pf_result = StringSimilaritySelfJoin(strings, pf);
  ASSERT_TRUE(pen_result.ok());
  ASSERT_TRUE(pf_result.ok());
  EXPECT_EQ(pen_result->pairs, pf_result->pairs);
}

TEST(StringJoinTest, PartEnumShapeOverride) {
  std::vector<std::string> strings = {"abcdef", "abcdez", "zzzzzz"};
  StringJoinOptions options;
  options.edit_threshold = 1;
  PartEnumParams shape;
  shape.n1 = 1;
  shape.n2 = 6;
  options.partenum_shape = shape;
  auto result = StringSimilaritySelfJoin(strings, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pairs, (std::vector<SetPair>{{0, 1}}));
}

// Pins the Section 3.2 accounting of the string join on one seeded
// address input, for both schemes, self and binary. The expected values
// were produced by the string join's earlier standalone driver (its own
// posting lists, nested-loop candidate pairing and serial edit-distance
// verification), so they also pin the generic driver to that reference:
// `candidates` counts distinct q-gram-bag candidate pairs, and every
// candidate that is not an edit-distance match — pruned by the hamming
// check inside Join() or by the edit check after it — is a false
// positive.
TEST(StringJoinTest, StatsPhasesPopulated) {
  AddressOptions options;
  options.num_strings = 200;
  options.duplicate_fraction = 0.25;
  options.seed = 31;
  std::vector<std::string> strings = GenerateAddressStrings(options);
  std::vector<std::string> r(strings.begin(), strings.begin() + 100);
  std::vector<std::string> s(strings.begin() + 100, strings.end());

  struct Expected {
    StringJoinAlgorithm algorithm;
    uint32_t q;
    bool binary;
    uint64_t signatures_r, signatures_s, collisions, candidates, results,
        false_positives;
  };
  const Expected cases[] = {
      {StringJoinAlgorithm::kPartEnum, 1, false, 2400, 2400, 534, 92, 27,
       65},
      {StringJoinAlgorithm::kPartEnum, 1, true, 1200, 1200, 198, 35, 9, 26},
      {StringJoinAlgorithm::kPrefixFilter, 4, false, 5720, 5720, 1306, 269,
       27, 242},
      {StringJoinAlgorithm::kPrefixFilter, 4, true, 2794, 2926, 489, 124, 9,
       115},
  };
  for (const Expected& want : cases) {
    StringJoinOptions join_options;
    join_options.edit_threshold = 2;
    join_options.q = want.q;
    join_options.algorithm = want.algorithm;
    auto result = want.binary ? StringSimilarityJoin(r, s, join_options)
                              : StringSimilaritySelfJoin(strings, join_options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const JoinStats& stats = result->stats;
    SCOPED_TRACE(std::string(want.algorithm == StringJoinAlgorithm::kPartEnum
                                 ? "PEN"
                                 : "PF") +
                 (want.binary ? " binary" : " self"));
    EXPECT_GT(stats.siggen_seconds, 0.0);
    EXPECT_EQ(stats.signatures_r, want.signatures_r);
    EXPECT_EQ(stats.signatures_s, want.signatures_s);
    EXPECT_EQ(stats.signature_collisions, want.collisions);
    EXPECT_EQ(stats.candidates, want.candidates);
    EXPECT_EQ(stats.results, want.results);
    EXPECT_EQ(stats.false_positives, want.false_positives);
    EXPECT_EQ(stats.results + stats.false_positives, stats.candidates);
    EXPECT_EQ(result->pairs.size(), stats.results);
  }
}

// Two empty strings are at edit distance 0. PartEnum pairs them; prefix
// filtering has no gram to pair them on, so it must refuse the input
// instead of silently dropping the pair.
TEST(StringJoinTest, EmptyStringsJoinOrAreRefused) {
  std::vector<std::string> strings = {"", "", "abcdef", "abcdeg"};
  StringJoinOptions options;
  options.edit_threshold = 1;
  options.q = 1;
  auto pen = StringSimilaritySelfJoin(strings, options);
  ASSERT_TRUE(pen.ok()) << pen.status().ToString();
  EXPECT_EQ(pen->pairs, BruteForceEditJoin(strings, 1));
  EXPECT_EQ(pen->pairs, (std::vector<SetPair>{{0, 1}, {2, 3}}));

  options.algorithm = StringJoinAlgorithm::kPrefixFilter;
  auto pf = StringSimilaritySelfJoin(strings, options);
  ASSERT_FALSE(pf.ok());
  EXPECT_EQ(pf.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ssjoin
