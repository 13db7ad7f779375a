// Prefix filter (Chaudhuri, Ganti, Kaushik [6]) — the best previous exact
// algorithm (paper Section 3.3), augmented with size-based filtering
// exactly as the paper's experimental setup describes (Section 8: "we
// augmented it with size-based filtering of Section 5").
//
// Signature scheme: order all elements by ascending global frequency in
// (R ∪ S), ties broken consistently. For a set s whose joinable pairs must
// intersect in at least t(s) elements, Sign(s) is the |s| - ceil(t(s)) + 1
// rarest elements of s — the classic prefix-filtering lemma guarantees two
// joinable sets share a prefix element. With size filtering on, each
// prefix element is tagged with the set's size-interval index (emitted for
// intervals i and i+1, as in Figure 6), so sets of incompatible sizes
// cannot collide.
//
// Limitation (inherent to prefix filtering): predicates that can be
// satisfied with an empty intersection (t(s) < 1) cannot be filtered; for
// such sets the scheme clamps t to 1, which silently drops zero-overlap
// matches. Create() rejects predicates where this occurs unless
// `allow_zero_overlap_loss` is set. An empty input set counts: it has no
// prefix, so every match the predicate allows it is a zero-overlap match.

#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/predicate.h"
#include "core/signature_scheme.h"
#include "core/weighted.h"
#include "data/collection.h"
#include "util/status.h"

namespace ssjoin {

struct PrefixFilterParams {
  /// Apply Section 5 size-based filtering (interval tags). The paper's
  /// experiments always enable this — the unaugmented original "was very
  /// poor relative to LSH and our algorithms".
  bool size_filter = true;
  /// Accept predicates for which some set sizes admit zero-overlap joins
  /// (see the limitation note above).
  bool allow_zero_overlap_loss = false;
  uint64_t seed = 0x9E3779B9;
};

/// \brief Prefix-filter signature scheme.
class PrefixFilterScheme final : public SignatureScheme {
 public:
  /// Builds the scheme for a self-join over `input`. Element frequencies
  /// and the size-interval table are computed from `input`; `predicate`
  /// supplies the per-size overlap thresholds.
  static Result<PrefixFilterScheme> Create(
      std::shared_ptr<const Predicate> predicate, const SetCollection& input,
      const PrefixFilterParams& params = {});

  /// Binary-join variant: frequencies over R ∪ S.
  static Result<PrefixFilterScheme> Create(
      std::shared_ptr<const Predicate> predicate, const SetCollection& r,
      const SetCollection& s, const PrefixFilterParams& params = {});

  std::string Name() const override;

  void Generate(std::span<const ElementId> set,
                std::vector<Signature>* out) const override;

  /// Prefix length used for sets of the given size (paper Section 3.3's
  /// "h"; 0 for size 0). Exposed for tests.
  uint32_t PrefixLength(uint32_t size) const;

  /// Global rarity rank of an element (0 = rarest). Unseen elements rank
  /// after all seen ones.
  uint64_t Rank(ElementId e) const;

 private:
  PrefixFilterScheme() = default;

  static Result<PrefixFilterScheme> CreateImpl(
      std::shared_ptr<const Predicate> predicate,
      const std::vector<const SetCollection*>& inputs,
      const PrefixFilterParams& params);

  std::shared_ptr<const Predicate> predicate_;
  PrefixFilterParams params_;
  uint32_t max_set_size_ = 0;
  std::unordered_map<ElementId, uint32_t> rank_;  // element -> rarity rank
  std::vector<uint32_t> prefix_len_;   // indexed by set size, 0..max
  std::vector<uint32_t> interval_of_;  // size -> interval index
};

/// \brief Weighted-jaccard prefix filter (the PF baseline of the paper's
/// Figure 19 experiments).
///
/// Elements are ordered rarest-first (equivalently by descending IDF).
/// For a set s, any partner with weighted jaccard >= gamma must share
/// weighted intersection >= gamma * w(s) (weighted Lemma 1), so the
/// signature prefix is the smallest head H of s with
/// w(s) - w(H) < gamma * w(s): if the globally-first shared element were
/// outside the prefix, the whole intersection would fit in the suffix,
/// contradicting the bound. Size-based filtering tags each prefix element
/// with the set's weighted-size interval (geometric with ratio 1/gamma),
/// as in WtEnum's jaccard mode.
class WeightedPrefixFilterScheme final : public SignatureScheme {
 public:
  /// `min_weighted_size` must be a positive lower bound on the weighted
  /// size of every nonempty input set (anchors the interval tags; ignored
  /// when size_filter is false).
  static Result<WeightedPrefixFilterScheme> Create(
      double gamma, WeightFunction weights, const SetCollection& input,
      double min_weighted_size, const PrefixFilterParams& params = {});

  std::string Name() const override;

  void Generate(std::span<const ElementId> set,
                std::vector<Signature>* out) const override;

  /// Weighted-size interval index (exposed for tests).
  uint32_t IntervalIndex(double weighted_size) const;

 private:
  WeightedPrefixFilterScheme() = default;

  double gamma_ = 0;
  WeightFunction weights_;
  PrefixFilterParams params_;
  double base_size_ = 0;
  double growth_ = 0;
  std::unordered_map<ElementId, uint32_t> rank_;
};

}  // namespace ssjoin
