#include "text/tokenizer.h"

#include <array>
#include <cctype>

#include "util/hashing.h"

namespace ssjoin {

namespace {

// separator[b] is true when std::isspace(b) is: the same separators the
// per-character std::isspace test gives, looked up once per byte.
const std::array<bool, 256>& Separators() {
  static const std::array<bool, 256> table = [] {
    std::array<bool, 256> t{};
    for (int c = 0; c < 256; ++c) t[c] = std::isspace(c) != 0;
    return t;
  }();
  return table;
}

// Calls visit(token) for every maximal run of non-separator bytes of
// `text`, in order.
template <typename Visit>
void ForEachToken(std::string_view text, Visit&& visit) {
  const std::array<bool, 256>& separator = Separators();
  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    while (i < n && separator[static_cast<unsigned char>(text[i])]) ++i;
    size_t start = i;
    while (i < n && !separator[static_cast<unsigned char>(text[i])]) ++i;
    if (i > start) visit(text.substr(start, i - start));
  }
}

// Appends the hashed tokens of `text` to `ids`.
void AppendTokenIds(std::string_view text, std::vector<ElementId>* ids) {
  ForEachToken(text, [&](std::string_view token) {
    ids->push_back(HashStringToken(token));
  });
}

}  // namespace

std::vector<std::string_view> WordTokenizer::Split(
    std::string_view text) const {
  std::vector<std::string_view> tokens;
  ForEachToken(text, [&](std::string_view token) { tokens.push_back(token); });
  return tokens;
}

std::vector<ElementId> WordTokenizer::Tokenize(std::string_view text) const {
  std::vector<ElementId> out;
  AppendTokenIds(text, &out);
  return out;
}

SetCollection WordTokenizer::TokenizeAll(
    const std::vector<std::string>& texts) const {
  SetCollectionBuilder builder;
  std::vector<ElementId> ids;
  for (const std::string& text : texts) {
    ids.clear();
    AppendTokenIds(text, &ids);
    builder.Add(ids);
  }
  return builder.Build();
}

}  // namespace ssjoin
