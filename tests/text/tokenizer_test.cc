#include "text/tokenizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "data/generators.h"
#include "util/hashing.h"

namespace ssjoin {
namespace {

TEST(TokenizerTest, SplitsOnWhitespace) {
  WordTokenizer tokenizer;
  auto tokens = tokenizer.Split("  los angeles\tCA\n90001 ");
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

// Reference for TokenizeAll: each string's Tokenize ids, sorted and
// deduplicated, compared set by set against the built collection.
void ExpectTokenizeAllMatchesReference(const std::vector<std::string>& texts) {
  WordTokenizer tokenizer;
  SetCollection sets = tokenizer.TokenizeAll(texts);
  ASSERT_EQ(sets.size(), texts.size());
  size_t total = 0;
  for (SetId id = 0; id < sets.size(); ++id) {
    std::vector<ElementId> expected = tokenizer.Tokenize(texts[id]);
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    std::span<const ElementId> actual = sets.set(id);
    ASSERT_TRUE(std::equal(actual.begin(), actual.end(), expected.begin(),
                           expected.end()))
        << "set " << id << ": \"" << texts[id] << "\"";
    total += expected.size();
  }
  EXPECT_EQ(sets.total_elements(), total);
}

TEST(TokenizerTest, TokenizeAllMatchesPerStringReferenceOnAddresses) {
  AddressOptions options;
  options.num_strings = 20000;
  options.seed = 3;
  ExpectTokenizeAllMatchesReference(GenerateAddressStrings(options));
}

TEST(TokenizerTest, TokenizeAllMatchesPerStringReferenceOnDblp) {
  DblpOptions options;
  options.num_strings = 20000;
  options.seed = 4;
  ExpectTokenizeAllMatchesReference(GenerateDblpStrings(options));
}

TEST(TokenizerTest, EachIsspaceByteSeparates) {
  WordTokenizer tokenizer;
  const ElementId a = HashStringToken("a");
  const ElementId b = HashStringToken("b");
  for (char sep : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    std::string text = {'a', sep, 'b', sep, sep};
    EXPECT_EQ(tokenizer.Tokenize(text), (std::vector<ElementId>{a, b}))
        << "separator byte " << static_cast<int>(sep);
  }
}

TEST(TokenizerTest, NulAndHighBytesStayInsideTokens) {
  WordTokenizer tokenizer;
  for (std::string_view token :
       {std::string_view("a\0b", 3), std::string_view("caf\xc3\xa9"),
        std::string_view("\x80\xff"), std::string_view("\0", 1),
        std::string_view("x\xa0y")}) {
    std::string text(1, ' ');
    text.append(token);
    text.push_back(' ');
    EXPECT_EQ(tokenizer.Tokenize(text),
              (std::vector<ElementId>{HashStringToken(token)}))
        << "token of " << token.size() << " bytes";
    EXPECT_EQ(tokenizer.Split(text).size(), 1u);
  }
}

TEST(TokenizerTest, EmptyAndBlankStringsGiveEmptySets) {
  WordTokenizer tokenizer;
  SetCollection sets =
      tokenizer.TokenizeAll({"", " \t\n\v\f\r", "x", "   "});
  ASSERT_EQ(sets.size(), 4u);
  EXPECT_EQ(sets.set_size(0), 0u);
  EXPECT_EQ(sets.set_size(1), 0u);
  EXPECT_EQ(sets.set_size(2), 1u);
  EXPECT_EQ(sets.set_size(3), 0u);
}

}  // namespace
}  // namespace ssjoin
