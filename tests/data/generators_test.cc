#include "data/generators.h"

#include <gtest/gtest.h>

#include "core/predicate.h"
#include "text/edit_distance.h"
#include "text/tokenizer.h"
#include "util/sorted_sets.h"

namespace ssjoin {
namespace {

TEST(UniformSetGeneratorTest, RespectsShapeParameters) {
  UniformSetOptions options;
  options.num_sets = 200;
  options.set_size = 50;
  options.domain_size = 10000;
  options.similar_fraction = 0.05;
  SetCollection c = GenerateUniformSets(options);
  EXPECT_EQ(c.size(), 210u);  // 200 + 5% planted
  for (SetId id = 0; id < c.size(); ++id) {
    EXPECT_EQ(c.set_size(id), 50u);
    for (ElementId e : c.set(id)) EXPECT_LT(e, 10000u);
  }
}

TEST(UniformSetGeneratorTest, PlantedDuplicatesAreSimilar) {
  UniformSetOptions options;
  options.num_sets = 100;
  options.set_size = 50;
  options.mutations = 2;
  options.similar_fraction = 0.1;
  SetCollection c = GenerateUniformSets(options);
  // Each planted set (ids >= 100) must have jaccard >= 48/52 with some
  // base set.
  JaccardPredicate predicate(48.0 / 52.0);
  for (SetId dup = 100; dup < c.size(); ++dup) {
    bool found = false;
    for (SetId base = 0; base < 100 && !found; ++base) {
      found = predicate.Evaluate(c.set(base), c.set(dup));
    }
    EXPECT_TRUE(found) << "planted set " << dup << " has no similar base";
  }
}

TEST(UniformSetGeneratorTest, DeterministicPerSeed) {
  UniformSetOptions options;
  options.num_sets = 50;
  SetCollection a = GenerateUniformSets(options);
  SetCollection b = GenerateUniformSets(options);
  ASSERT_EQ(a.size(), b.size());
  for (SetId id = 0; id < a.size(); ++id) {
    ASSERT_EQ(a.set_size(id), b.set_size(id));
    EXPECT_TRUE(std::equal(a.set(id).begin(), a.set(id).end(),
                           b.set(id).begin()));
  }
}

TEST(InjectTyposTest, BoundedEditDistance) {
  Rng rng(44);
  std::string base = "harbor systems llc 1200 oak ave seattle wa 98101";
  for (int trial = 0; trial < 100; ++trial) {
    uint32_t typos = 1 + rng.Uniform(3);
    std::string mutated = InjectTypos(base, typos, rng);
    // Each typo costs at most 2 edits (transpose); never more.
    EXPECT_LE(EditDistance(base, mutated), 2 * typos);
    EXPECT_FALSE(mutated.empty());
  }
}

TEST(InjectTyposTest, ZeroTyposIsIdentity) {
  Rng rng(45);
  EXPECT_EQ(InjectTypos("hello", 0, rng), "hello");
}

TEST(AddressGeneratorTest, MatchesPublishedStatistics) {
  AddressOptions options;
  options.num_strings = 2000;
  std::vector<std::string> strings = GenerateAddressStrings(options);
  ASSERT_EQ(strings.size(), 2000u);

  double total_len = 0;
  WordTokenizer tokenizer;
  double total_tokens = 0;
  for (const std::string& s : strings) {
    total_len += static_cast<double>(s.size());
    total_tokens += static_cast<double>(tokenizer.Split(s).size());
  }
  double avg_len = total_len / 2000.0;
  double avg_tokens = total_tokens / 2000.0;
  // Paper: average string length 58, average token-set size 11.
  EXPECT_GT(avg_len, 40.0);
  EXPECT_LT(avg_len, 75.0);
  EXPECT_GT(avg_tokens, 8.0);
  EXPECT_LT(avg_tokens, 13.0);
}

TEST(AddressGeneratorTest, ContainsNearDuplicates) {
  AddressOptions options;
  options.num_strings = 500;
  options.duplicate_fraction = 0.2;
  options.max_typos = 2;
  std::vector<std::string> strings = GenerateAddressStrings(options);
  int near_dups = 0;
  for (size_t i = 0; i < strings.size(); ++i) {
    for (size_t j = i + 1; j < strings.size(); ++j) {
      if (WithinEditDistance(strings[i], strings[j], 4) &&
          strings[i] != strings[j]) {
        ++near_dups;
      }
    }
  }
  EXPECT_GT(near_dups, 10);
}

TEST(DblpGeneratorTest, MatchesPublishedStatistics) {
  DblpOptions options;
  options.num_strings = 2000;
  std::vector<std::string> strings = GenerateDblpStrings(options);
  WordTokenizer tokenizer;
  double total_tokens = 0;
  for (const std::string& s : strings) {
    total_tokens += static_cast<double>(tokenizer.Split(s).size());
  }
  // Paper: DBLP average set size 14.
  double avg = total_tokens / 2000.0;
  EXPECT_GT(avg, 10.0);
  EXPECT_LT(avg, 18.0);
}

TEST(GeneratorsTest, DifferentSeedsDifferentData) {
  AddressOptions a, b;
  a.num_strings = b.num_strings = 10;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(GenerateAddressStrings(a), GenerateAddressStrings(b));
}

}  // namespace
}  // namespace ssjoin
