#include "text/qgram.h"

#include "util/check.h"
#include "util/hashing.h"

namespace ssjoin {

namespace {

// Writes `text` padded with q-1 sentinels on each side (when padding is on
// and q > 1) into `padded`.
void Pad(std::string_view text, const QgramOptions& options,
         std::string* padded) {
  padded->clear();
  if (options.pad && options.q > 1) {
    padded->append(options.q - 1, options.pad_char);
    padded->append(text);
    padded->append(options.q - 1, options.pad_char);
  } else {
    padded->append(text);
  }
}

// Calls visit(gram) for each q-long window of `padded` in positional
// order; a non-empty buffer shorter than q is one gram by itself.
template <typename Visit>
void ForEachGram(std::string_view padded, uint32_t q, Visit&& visit) {
  if (padded.size() < q) {
    if (!padded.empty()) visit(padded);
    return;
  }
  for (size_t i = 0; i + q <= padded.size(); ++i) visit(padded.substr(i, q));
}

// Appends the hashed grams of `text` to `out`, building the padded text
// in `padded` (reused across strings by ExtractAllAsBags).
void AppendGrams(std::string_view text, const QgramOptions& options,
                 std::string* padded, std::vector<ElementId>* out) {
  if (options.q == 1) {
    // Fast path: unigrams are just the characters.
    for (unsigned char c : text) out->push_back(static_cast<ElementId>(c));
    return;
  }
  Pad(text, options, padded);
  ForEachGram(*padded, options.q, [&](std::string_view gram) {
    out->push_back(HashStringToken(gram));
  });
}

}  // namespace

QgramExtractor::QgramExtractor(QgramOptions options) : options_(options) {
  SSJOIN_CHECK(options_.q >= 1, "q-grams need q >= 1 (got {})", options_.q);
}

std::vector<std::string> QgramExtractor::Grams(std::string_view text) const {
  std::string padded;
  Pad(text, options_, &padded);
  std::vector<std::string> grams;
  ForEachGram(padded, options_.q,
              [&](std::string_view gram) { grams.emplace_back(gram); });
  return grams;
}

std::vector<ElementId> QgramExtractor::Extract(std::string_view text) const {
  std::string padded;
  std::vector<ElementId> out;
  AppendGrams(text, options_, &padded, &out);
  return out;
}

SetCollection QgramExtractor::ExtractAllAsBags(
    const std::vector<std::string>& texts) const {
  SetCollectionBuilder builder;
  std::string padded;
  std::vector<ElementId> grams;
  for (const std::string& text : texts) {
    grams.clear();
    AppendGrams(text, options_, &padded, &grams);
    builder.AddBag(grams);
  }
  return builder.Build();
}

}  // namespace ssjoin
