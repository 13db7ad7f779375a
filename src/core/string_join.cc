#include "core/string_join.h"

#include <algorithm>
#include <memory>
#include <unordered_set>

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
      PartEnumParams params = options.partenum_shape.value_or(
          PartEnumParams::Default(hamming_k));
      params.k = hamming_k;
      params.seed = options.seed;
      params.n1 = std::max<uint32_t>(1, std::min(params.n1, params.k + 1));
      while (static_cast<uint64_t>(params.n1) * params.n2 <=
             static_cast<uint64_t>(params.k) + 1) {
        ++params.n2;
      }
      auto created = PartEnumScheme::Create(params);
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

// Deduplicated signature postings (signature, id), sorted by signature.
std::vector<std::pair<Signature, SetId>> BuildPostings(
    const SetCollection& bags, const SignatureScheme& scheme,
    uint64_t* signature_count) {
  std::vector<std::pair<Signature, SetId>> postings;
  std::vector<Signature> scratch;
  for (SetId id = 0; id < bags.size(); ++id) {
    scratch.clear();
    scheme.Generate(bags.set(id), &scratch);
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()),
                  scratch.end());
    *signature_count += scratch.size();
    for (Signature sig : scratch) postings.emplace_back(sig, id);
  }
  std::sort(postings.begin(), postings.end());
  return postings;
}

}  // namespace

uint32_t QgramHammingThreshold(uint32_t q, uint32_t k) { return 2 * q * k; }

Result<JoinResult> StringSimilaritySelfJoin(
    const std::vector<std::string>& strings,
    const StringJoinOptions& options) {
  if (options.q == 0) {
    return Status::InvalidArgument("StringJoin: q must be >= 1");
  }
  JoinResult result;
  obs::JoinTelemetry telem(options.tracer, options.metrics, "join");
  telem.Attr("mode", "string_self");
  telem.Attr("input_sets", static_cast<uint64_t>(strings.size()));
  uint32_t hamming_k =
      QgramHammingThreshold(options.q, options.edit_threshold);

  // Phase 1 (Figure 16): grams + signatures, "on-the-fly, in
  // application-level code". Gram extraction is part of SigGen.
  SetCollection bags;
  {
    auto scope =
        telem.Time(&result.stats.siggen_seconds);
    QgramExtractor extractor(QgramOptions{.q = options.q});
    bags = extractor.ExtractAllAsBags(strings);
  }

  SSJOIN_ASSIGN_OR_RETURN(
      std::unique_ptr<SignatureScheme> scheme,
      MakeScheme(options, hamming_k, bags, /*s_bags=*/nullptr));

  std::vector<std::pair<Signature, SetId>> postings;
  {
    auto scope =
        telem.Phase(kPhaseSigGen, &result.stats.siggen_seconds);
    postings = BuildPostings(bags, *scheme, &result.stats.signatures_r);
    result.stats.signatures_s = result.stats.signatures_r;
  }

  std::unordered_set<uint64_t> candidates;
  {
    auto scope =
        telem.Phase(kPhaseCandPair, &result.stats.candpair_seconds);
    size_t i = 0;
    while (i < postings.size()) {
      size_t j = i;
      while (j < postings.size() && postings[j].first == postings[i].first) {
        ++j;
      }
      uint64_t group = j - i;
      result.stats.signature_collisions += group * (group - 1) / 2;
      for (size_t a = i; a < j; ++a) {
        for (size_t b = a + 1; b < j; ++b) {
          SetId lo = std::min(postings[a].second, postings[b].second);
          SetId hi = std::max(postings[a].second, postings[b].second);
          if (lo != hi) candidates.insert(PackPair(lo, hi));
        }
      }
      i = j;
    }
    result.stats.candidates = candidates.size();
  }

  {
    auto scope = telem.Phase(kPhasePostFilter,
                             &result.stats.postfilter_seconds);
    for (uint64_t packed : candidates) {
      auto [a, b] = UnpackPair(packed);
      if (WithinEditDistance(strings[a], strings[b],
                             options.edit_threshold)) {
        result.pairs.emplace_back(a, b);
        ++result.stats.results;
      } else {
        ++result.stats.false_positives;
      }
    }
    std::sort(result.pairs.begin(), result.pairs.end());
  }

  telem.Attr("results", result.stats.results);
  return result;
}

Result<JoinResult> StringSimilarityJoin(
    const std::vector<std::string>& r_strings,
    const std::vector<std::string>& s_strings,
    const StringJoinOptions& options) {
  if (options.q == 0) {
    return Status::InvalidArgument("StringJoin: q must be >= 1");
  }
  JoinResult result;
  obs::JoinTelemetry telem(options.tracer, options.metrics, "join");
  telem.Attr("mode", "string_binary");
  telem.Attr("input_sets_r", static_cast<uint64_t>(r_strings.size()));
  telem.Attr("input_sets_s", static_cast<uint64_t>(s_strings.size()));
  uint32_t hamming_k =
      QgramHammingThreshold(options.q, options.edit_threshold);

  SetCollection r_bags, s_bags;
  {
    auto scope =
        telem.Time(&result.stats.siggen_seconds);
    QgramExtractor extractor(QgramOptions{.q = options.q});
    r_bags = extractor.ExtractAllAsBags(r_strings);
    s_bags = extractor.ExtractAllAsBags(s_strings);
  }

  SSJOIN_ASSIGN_OR_RETURN(
      std::unique_ptr<SignatureScheme> scheme,
      MakeScheme(options, hamming_k, r_bags, &s_bags));

  std::vector<std::pair<Signature, SetId>> postings_r, postings_s;
  {
    auto scope =
        telem.Phase(kPhaseSigGen, &result.stats.siggen_seconds);
    postings_r =
        BuildPostings(r_bags, *scheme, &result.stats.signatures_r);
    postings_s =
        BuildPostings(s_bags, *scheme, &result.stats.signatures_s);
  }

  std::unordered_set<uint64_t> candidates;
  {
    auto scope =
        telem.Phase(kPhaseCandPair, &result.stats.candpair_seconds);
    size_t i = 0, j = 0;
    while (i < postings_r.size() && j < postings_s.size()) {
      Signature sig_r = postings_r[i].first;
      Signature sig_s = postings_s[j].first;
      if (sig_r < sig_s) {
        ++i;
      } else if (sig_s < sig_r) {
        ++j;
      } else {
        size_t ei = i, ej = j;
        while (ei < postings_r.size() && postings_r[ei].first == sig_r) ++ei;
        while (ej < postings_s.size() && postings_s[ej].first == sig_r) ++ej;
        result.stats.signature_collisions +=
            static_cast<uint64_t>(ei - i) * (ej - j);
        for (size_t a = i; a < ei; ++a) {
          for (size_t b = j; b < ej; ++b) {
            candidates.insert(
                PackPair(postings_r[a].second, postings_s[b].second));
          }
        }
        i = ei;
        j = ej;
      }
    }
    result.stats.candidates = candidates.size();
  }

  {
    auto scope = telem.Phase(kPhasePostFilter,
                             &result.stats.postfilter_seconds);
    for (uint64_t packed : candidates) {
      auto [a, b] = UnpackPair(packed);
      if (WithinEditDistance(r_strings[a], s_strings[b],
                             options.edit_threshold)) {
        result.pairs.emplace_back(a, b);
        ++result.stats.results;
      } else {
        ++result.stats.false_positives;
      }
    }
    std::sort(result.pairs.begin(), result.pairs.end());
  }

  telem.Attr("results", result.stats.results);
  return result;
}

}  // namespace ssjoin
