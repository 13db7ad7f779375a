#include "text/tokenizer.h"

#include <cctype>

#include "util/hashing.h"

namespace ssjoin {

std::vector<std::string> WordTokenizer::Split(std::string_view text) const {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

std::vector<ElementId> WordTokenizer::Tokenize(std::string_view text) const {
  std::vector<ElementId> out;
  for (const std::string& token : Split(text)) {
    out.push_back(HashStringToken(token));
  }
  return out;
}

SetCollection WordTokenizer::TokenizeAll(
    const std::vector<std::string>& texts) const {
  SetCollectionBuilder builder;
  for (const std::string& text : texts) {
    builder.Add(Tokenize(text));
  }
  return builder.Build();
}

}  // namespace ssjoin
