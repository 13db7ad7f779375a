// String-to-set tokenization.
//
// The paper's jaccard experiments (Section 8.1) tokenize strings on white
// space and hash each word to a 32-bit integer; the resulting word sets are
// the SSJoin input. WordTokenizer reproduces that pipeline.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "data/collection.h"

namespace ssjoin {

/// \brief Whitespace word tokenizer with 32-bit token hashing. Every
/// character for which std::isspace is true separates tokens; case is
/// kept, so "Seattle" and "seattle" are different tokens. Any other byte
/// ('\0' and bytes >= 0x80 included) belongs to a token.
class WordTokenizer {
 public:
  /// Splits `text` into word tokens (no hashing). The views point into
  /// `text`, so they are valid only while it is.
  std::vector<std::string_view> Split(std::string_view text) const;

  /// Tokenizes and hashes `text` into element ids (one per token, with
  /// duplicates preserved; callers choose set vs bag semantics).
  std::vector<ElementId> Tokenize(std::string_view text) const;

  /// Tokenizes every string and builds a SetCollection (set semantics:
  /// duplicate tokens within one string collapse).
  SetCollection TokenizeAll(const std::vector<std::string>& texts) const;
};

}  // namespace ssjoin
