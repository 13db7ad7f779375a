// q-gram (n-gram) extraction.
//
// Edit-distance string joins run on q-gram multisets (paper Section 8.2):
// one edit operation changes at most q grams of each string, so if
// EditDistance(s1, s2) <= k the hamming distance between their q-gram
// bags is <= 2qk, and an SSJoin with hamming threshold 2qk is a complete
// filter. (The paper states q*k, which its own Example 1 contradicts; see
// core/string_join.h.) The paper finds q = 1 optimal for PartEnum (small
// element domains do not hurt it) while prefix filter needs q = 4..6.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "data/collection.h"

namespace ssjoin {

/// Options controlling q-gram extraction.
struct QgramOptions {
  /// Gram length (the paper's n). 1 = character unigrams.
  uint32_t q = 1;
  /// Pad the string with q-1 copies of a sentinel on each side, the
  /// standard way to give boundary characters full weight. With padding,
  /// a string of length L yields L + q - 1 grams; without, L - q + 1.
  bool pad = true;
  /// Sentinel used for padding; must not occur in the input.
  char pad_char = '\x01';
};

/// \brief Extracts q-grams and hashes them to element ids.
class QgramExtractor {
 public:
  explicit QgramExtractor(QgramOptions options = {});

  /// The q-grams of `text` as strings, in positional order.
  std::vector<std::string> Grams(std::string_view text) const;

  /// The q-grams of `text` hashed to element ids (multiplicities kept, in
  /// positional order).
  std::vector<ElementId> Extract(std::string_view text) const;

  /// Builds the q-gram *bag* collection of `texts` (bag semantics via
  /// occurrence re-encoding, see SetCollectionBuilder::AddBag) — the input
  /// shape required by the edit-distance join.
  SetCollection ExtractAllAsBags(const std::vector<std::string>& texts) const;

  uint32_t q() const { return options_.q; }

  /// The complete upper bound 2qk on the q-gram-bag hamming distance
  /// implied by an edit distance of `k`: each edit removes at most q grams
  /// from one bag and adds at most q to the other (padding included).
  /// q*k is not a bound: one substitution can move the distance by 2q.
  uint32_t HammingBound(uint32_t k) const { return options_.q * k * 2; }

 private:
  const QgramOptions options_;
};

}  // namespace ssjoin
