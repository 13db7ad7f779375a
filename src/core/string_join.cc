#include "core/string_join.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "baselines/prefix_filter.h"
#include "core/predicate.h"
#include "core/signature_scheme.h"
#include "core/types.h"
#include "obs/join_telemetry.h"
#include "text/edit_distance.h"
#include "text/qgram.h"

namespace ssjoin {

namespace {

// Builds the candidate-filter scheme over q-gram bags. For prefix filter,
// element frequencies come from both inputs (s_bags may be null for
// self-joins).
Result<std::unique_ptr<SignatureScheme>> MakeScheme(
    const StringJoinOptions& options, uint32_t hamming_k,
    const SetCollection& r_bags, const SetCollection* s_bags) {
  switch (options.algorithm) {
    case StringJoinAlgorithm::kPartEnum: {
      auto created = PartEnumScheme::Create(
          options.partenum_shape.value_or(PartEnumParams::Default(hamming_k))
              .FittedTo(hamming_k, options.seed));
      if (!created.ok()) return created.status();
      return std::unique_ptr<SignatureScheme>(
          std::make_unique<PartEnumScheme>(std::move(created).value()));
    }
    case StringJoinAlgorithm::kPrefixFilter: {
      auto predicate = std::make_shared<HammingPredicate>(hamming_k);
      auto created =
          s_bags ? PrefixFilterScheme::Create(predicate, r_bags, *s_bags,
                                              PrefixFilterParams{})
                 : PrefixFilterScheme::Create(predicate, r_bags,
                                              PrefixFilterParams{});
      if (!created.ok()) return created.status();
      return std::unique_ptr<SignatureScheme>(
          std::make_unique<PrefixFilterScheme>(std::move(created).value()));
    }
  }
  return Status::InvalidArgument("unknown string-join algorithm");
}

// The body of both entry points; `s_strings` is null for a self-join.
Result<JoinResult> RunStringJoin(const std::vector<std::string>& r_strings,
                                 const std::vector<std::string>* s_strings,
                                 const StringJoinOptions& options) {
  if (options.q == 0) {
    return Status::InvalidArgument("StringJoin: q must be >= 1");
  }
  const uint64_t bound =
      QgramHammingThreshold(options.q, options.edit_threshold);
  if (bound > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "StringJoin: hamming threshold 2*q*k exceeds 2^32-1");
  }
  const uint32_t hamming_k = static_cast<uint32_t>(bound);
  obs::JoinTelemetry telem(options.tracer, options.metrics, "join");
  if (s_strings == nullptr) {
    telem.Attr("mode", "string_self");
    telem.Attr("input_sets", static_cast<uint64_t>(r_strings.size()));
  } else {
    telem.Attr("mode", "string_binary");
    telem.Attr("input_sets_r", static_cast<uint64_t>(r_strings.size()));
    telem.Attr("input_sets_s", static_cast<uint64_t>(s_strings->size()));
  }
  HammingPredicate predicate(hamming_k);

  // Figure 16's first step: grams and signatures "on-the-fly, in
  // application-level code". Gram extraction and the scheme built over
  // the gram bags are the qgram stage, which counts as SigGen; the
  // signatures themselves are generated inside Join().
  double qgram_seconds = 0;
  SetCollection r_bags, s_bags;
  std::unique_ptr<SignatureScheme> scheme;
  SSJOIN_RETURN_NOT_OK(obs::RunStage(
      &telem, obs::names::kOpQgram, 0, &qgram_seconds,
      r_strings.size() + (s_strings != nullptr ? s_strings->size() : 0),
      [&]() -> Result<uint64_t> {
        QgramExtractor extractor(QgramOptions{.q = options.q});
        r_bags = extractor.ExtractAllAsBags(r_strings);
        if (s_strings != nullptr) {
          s_bags = extractor.ExtractAllAsBags(*s_strings);
        }
        SSJOIN_ASSIGN_OR_RETURN(
            scheme, MakeScheme(options, hamming_k, r_bags,
                               s_strings != nullptr ? &s_bags : nullptr));
        return r_bags.size() + s_bags.size();
      }));

  // The hamming SSJoin at 2qk. Its pairs are an exact superset of the
  // edit-distance matches (see string_join.h).
  JoinOptions join_options;
  join_options.tracer = options.tracer;
  join_options.metrics = options.metrics;
  JoinResult result =
      Join(s_strings == nullptr
               ? SelfJoinRequest(r_bags, *scheme, predicate, join_options)
               : BinaryJoinRequest(r_bags, s_bags, *scheme, predicate,
                                   join_options));
  if (!result.status.ok()) return result.status;
  result.stats.siggen_seconds += qgram_seconds;

  // The edit_check stage: the exact edit distance over the survivors,
  // "in application code". A survivor that fails it is one more false
  // positive of the join.
  SSJOIN_RETURN_NOT_OK(obs::RunStage(
      &telem, obs::names::kOpEditCheck, 1, &result.stats.postfilter_seconds,
      result.pairs.size(), [&]() -> Result<uint64_t> {
        const std::vector<std::string>& s_side =
            s_strings != nullptr ? *s_strings : r_strings;
        size_t kept = 0;
        for (const SetPair& pair : result.pairs) {
          if (WithinEditDistance(r_strings[pair.first], s_side[pair.second],
                                 options.edit_threshold)) {
            result.pairs[kept++] = pair;
          }
        }
        result.stats.false_positives += result.pairs.size() - kept;
        result.stats.results = kept;
        result.pairs.resize(kept);
        return kept;
      }));

  telem.Attr("results", result.stats.results);
  return result;
}

}  // namespace

uint64_t QgramHammingThreshold(uint32_t q, uint32_t k) {
  return uint64_t{2} * q * k;
}

Result<JoinResult> StringSimilaritySelfJoin(
    const std::vector<std::string>& strings,
    const StringJoinOptions& options) {
  return RunStringJoin(strings, /*s_strings=*/nullptr, options);
}

Result<JoinResult> StringSimilarityJoin(
    const std::vector<std::string>& r_strings,
    const std::vector<std::string>& s_strings,
    const StringJoinOptions& options) {
  return RunStringJoin(r_strings, &s_strings, options);
}

}  // namespace ssjoin
