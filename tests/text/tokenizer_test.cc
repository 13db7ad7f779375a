#include "text/tokenizer.h"

#include <gtest/gtest.h>

namespace ssjoin {
namespace {

TEST(TokenizerTest, SplitsOnWhitespace) {
  WordTokenizer tokenizer;
  std::vector<std::string> tokens =
      tokenizer.Split("  los angeles\tCA\n90001 ");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "los");
  EXPECT_EQ(tokens[1], "angeles");
  EXPECT_EQ(tokens[2], "CA");
  EXPECT_EQ(tokens[3], "90001");
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  WordTokenizer tokenizer;
  EXPECT_TRUE(tokenizer.Split("").empty());
  EXPECT_TRUE(tokenizer.Split("   \t\n ").empty());
}

TEST(TokenizerTest, TokenizePreservesDuplicates) {
  WordTokenizer tokenizer;
  std::vector<ElementId> ids = tokenizer.Tokenize("ave 148th ave");
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], ids[2]);
  EXPECT_NE(ids[0], ids[1]);
}

TEST(TokenizerTest, TokenizeAllBuildsSetSemantics) {
  WordTokenizer tokenizer;
  SetCollection sets = tokenizer.TokenizeAll(
      {"main st main", "main st", "oak ave"});
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets.set_size(0), 2u);  // duplicate "main" collapsed
  EXPECT_EQ(sets.set_size(1), 2u);
  // Same tokens => same set.
  EXPECT_TRUE(std::equal(sets.set(0).begin(), sets.set(0).end(),
                         sets.set(1).begin(), sets.set(1).end()));
}

TEST(TokenizerTest, SameWordSameIdAcrossStrings) {
  WordTokenizer tokenizer;
  std::vector<ElementId> a = tokenizer.Tokenize("seattle rain");
  std::vector<ElementId> b = tokenizer.Tokenize("rain city");
  EXPECT_EQ(a[1], b[0]);
}

}  // namespace
}  // namespace ssjoin
