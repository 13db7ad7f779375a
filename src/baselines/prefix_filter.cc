#include "baselines/prefix_filter.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/check.h"
#include "util/hashing.h"

namespace ssjoin {

Result<PrefixFilterScheme> PrefixFilterScheme::Create(
    std::shared_ptr<const Predicate> predicate, const SetCollection& input,
    const PrefixFilterParams& params) {
  return CreateImpl(std::move(predicate), {&input}, params);
}

Result<PrefixFilterScheme> PrefixFilterScheme::Create(
    std::shared_ptr<const Predicate> predicate, const SetCollection& r,
    const SetCollection& s, const PrefixFilterParams& params) {
  return CreateImpl(std::move(predicate), {&r, &s}, params);
}

Result<PrefixFilterScheme> PrefixFilterScheme::CreateImpl(
    std::shared_ptr<const Predicate> predicate,
    const std::vector<const SetCollection*>& inputs,
    const PrefixFilterParams& params) {
  if (!predicate) {
    return Status::InvalidArgument("PrefixFilter: predicate is null");
  }
  PrefixFilterScheme scheme;
  scheme.predicate_ = std::move(predicate);
  scheme.params_ = params;

  // Global element frequencies over R ∪ S (paper Section 3.3), plus the
  // set sizes that actually occur (only those need valid prefix lengths).
  std::unordered_map<ElementId, uint32_t> freq;
  std::vector<bool> size_present;
  uint64_t empty_sets = 0;
  for (const SetCollection* input : inputs) {
    scheme.max_set_size_ =
        std::max(scheme.max_set_size_, input->max_set_size());
    size_present.resize(scheme.max_set_size_ + 1, false);
    for (SetId id = 0; id < input->size(); ++id) {
      size_present[input->set_size(id)] = true;
      if (input->set_size(id) == 0) ++empty_sets;
      for (ElementId e : input->set(id)) ++freq[e];
    }
  }

  // Rarity ranks: ascending frequency, ties broken by element id
  // ("arbitrarily but consistently").
  std::vector<std::pair<uint32_t, ElementId>> order;
  order.reserve(freq.size());
  for (const auto& [e, f] : freq) order.emplace_back(f, e);
  std::sort(order.begin(), order.end());
  scheme.rank_.reserve(order.size());
  for (uint32_t r = 0; r < order.size(); ++r) {
    scheme.rank_.emplace(order[r].second, r);
  }

  // Per-size prefix lengths from the predicate's overlap thresholds. The
  // minimum runs over partner sizes that actually occur in the input —
  // for equi-sized inputs this recovers the paper's Section 3.3 analysis
  // (size 20, gamma 0.8 => overlap >= 18 => three-element prefixes).
  // Size 0 is checked too: an empty set has no prefix, so an empty set
  // the predicate lets join is a zero-overlap join like any other.
  scheme.prefix_len_.assign(scheme.max_set_size_ + 1, 0);
  for (uint32_t size = 0; size <= scheme.max_set_size_; ++size) {
    double t = std::numeric_limits<double>::infinity();
    std::optional<SizeRange> range = scheme.predicate_->JoinableSizes(
        size, scheme.max_set_size_ * 2 + 16);
    if (range) {
      uint32_t hi = std::min(range->hi, scheme.max_set_size_);
      for (uint32_t partner = range->lo; partner <= hi; ++partner) {
        if (!size_present[partner]) continue;
        // A lone empty set has no size-0 partner: it cannot join itself.
        if (size == 0 && partner == 0 && empty_sets < 2) continue;
        t = std::min(t, scheme.predicate_->MinOverlap(size, partner));
      }
    }
    if (std::isinf(t)) {
      // Size joins nothing; emit minimal.
      scheme.prefix_len_[size] = std::min(size, 1u);
      continue;
    }
    // Integer overlaps: the effective threshold is ceil(t). Only t <= 0
    // (a genuinely zero-overlap join) defeats prefix filtering — and only
    // for set sizes that actually occur in the input.
    uint32_t t_int = static_cast<uint32_t>(std::ceil(std::max(t, 0.0) - 1e-9));
    if (t_int < 1) {
      if (!params.allow_zero_overlap_loss && size_present[size]) {
        return Status::InvalidArgument(
            "PrefixFilter: predicate admits zero-overlap joins at set size " +
            std::to_string(size) +
            "; prefix filtering would be incomplete (set "
            "allow_zero_overlap_loss to accept)");
      }
      t_int = 1;
    }
    uint32_t h = size >= t_int ? size - t_int + 1 : 1;
    scheme.prefix_len_[size] = std::min(h, size);
    SSJOIN_CHECK(scheme.prefix_len_[size] >= std::min(size, 1u) &&
                     scheme.prefix_len_[size] <= size,
                 "prefix length {} for set size {} outside [min(1, size), "
                 "size]",
                 scheme.prefix_len_[size], size);
  }

  // Size intervals for size-based filtering (Section 5 applied to PF, as
  // in the paper's experimental setup).
  scheme.interval_of_.assign(scheme.max_set_size_ + 1, 0);
  if (params.size_filter && scheme.max_set_size_ > 0) {
    std::vector<SizeRange> intervals =
        BuildJoinableSizeIntervals(*scheme.predicate_, scheme.max_set_size_);
    for (uint32_t idx = 0; idx < intervals.size(); ++idx) {
      for (uint32_t size = intervals[idx].lo;
           size <= std::min(intervals[idx].hi, scheme.max_set_size_);
           ++size) {
        scheme.interval_of_[size] = idx;
      }
    }
  }
  return scheme;
}

std::string PrefixFilterScheme::Name() const {
  std::ostringstream os;
  os << "PF(" << predicate_->Name()
     << (params_.size_filter ? ",size-filtered" : "") << ")";
  return os.str();
}

uint32_t PrefixFilterScheme::PrefixLength(uint32_t size) const {
  SSJOIN_CHECK_BOUNDS(size, prefix_len_.size());
  return prefix_len_[size];
}

uint64_t PrefixFilterScheme::Rank(ElementId e) const {
  auto it = rank_.find(e);
  // Unseen elements sort after all seen ones, ordered by id.
  if (it == rank_.end()) return (1ULL << 32) + e;
  return it->second;
}

void PrefixFilterScheme::Generate(std::span<const ElementId> set,
                                  std::vector<Signature>* out) const {
  if (set.empty()) return;  // prefix filtering cannot cover empty sets
  uint32_t size = static_cast<uint32_t>(set.size());
  SSJOIN_CHECK(size <= max_set_size_,
               "set of {} elements exceeds the indexed maximum {}; "
               "prefix lengths are only valid for indexed sizes",
               size, max_set_size_);

  // Order the set's elements rarest-first and take the prefix.
  std::vector<std::pair<uint64_t, ElementId>> by_rank;
  by_rank.reserve(set.size());
  for (ElementId e : set) by_rank.emplace_back(Rank(e), e);
  std::sort(by_rank.begin(), by_rank.end());
  uint32_t h = prefix_len_[size];
  SSJOIN_DCHECK(h >= 1 && h <= by_rank.size(),
                "prefix length {} outside [1, {}]", h, by_rank.size());

  for (uint32_t p = 0; p < h; ++p) {
    ElementId e = by_rank[p].second;
    if (!params_.size_filter) {
      out->push_back(static_cast<Signature>(e));
      continue;
    }
    // Tag with interval indices i and i+1 (Figure 6 applied to PF).
    uint32_t i = interval_of_[size];
    for (uint32_t tag : {i, i + 1}) {
      out->push_back(HashCombine(Mix64(tag + 1), Mix64(e)));
    }
  }
}

// ---------------------------------------------------------------------------
// WeightedPrefixFilterScheme

Result<WeightedPrefixFilterScheme> WeightedPrefixFilterScheme::Create(
    double gamma, WeightFunction weights, const SetCollection& input,
    double min_weighted_size, const PrefixFilterParams& params) {
  if (!(gamma > 0 && gamma <= 1)) {
    return Status::InvalidArgument(
        "WeightedPrefixFilter: gamma must be in (0,1]");
  }
  if (!weights) {
    return Status::InvalidArgument(
        "WeightedPrefixFilter: weight function is null");
  }
  if (params.size_filter && min_weighted_size <= 0) {
    return Status::InvalidArgument(
        "WeightedPrefixFilter: min_weighted_size must be positive");
  }
  WeightedPrefixFilterScheme scheme;
  scheme.gamma_ = gamma;
  scheme.weights_ = std::move(weights);
  scheme.params_ = params;
  scheme.base_size_ = min_weighted_size * (1.0 - 1e-9);
  scheme.growth_ = (1.0 / gamma) * (1.0 + 1e-9);

  std::unordered_map<ElementId, uint32_t> freq;
  for (SetId id = 0; id < input.size(); ++id) {
    for (ElementId e : input.set(id)) ++freq[e];
  }
  std::vector<std::pair<uint32_t, ElementId>> order;
  order.reserve(freq.size());
  for (const auto& [e, f] : freq) order.emplace_back(f, e);
  std::sort(order.begin(), order.end());
  scheme.rank_.reserve(order.size());
  for (uint32_t r = 0; r < order.size(); ++r) {
    scheme.rank_.emplace(order[r].second, r);
  }
  return scheme;
}

std::string WeightedPrefixFilterScheme::Name() const {
  std::ostringstream os;
  os << "WPF(wjaccard>=" << gamma_ << ")";
  return os.str();
}

uint32_t WeightedPrefixFilterScheme::IntervalIndex(
    double weighted_size) const {
  uint32_t index = 0;
  double boundary = base_size_ * growth_;
  while (boundary <= weighted_size) {
    ++index;
    boundary *= growth_;
  }
  return index;
}

void WeightedPrefixFilterScheme::Generate(
    std::span<const ElementId> set, std::vector<Signature>* out) const {
  if (set.empty()) return;
  // Order rarest-first under the global frequency ranking.
  std::vector<std::pair<uint64_t, ElementId>> by_rank;
  by_rank.reserve(set.size());
  for (ElementId e : set) {
    auto it = rank_.find(e);
    uint64_t r = it == rank_.end() ? (1ULL << 32) + e : it->second;
    by_rank.emplace_back(r, e);
  }
  std::sort(by_rank.begin(), by_rank.end());

  double total = 0;
  for (ElementId e : set) total += weights_(e);
  // Smallest head with suffix weight < gamma * w(s) (see header).
  double required = gamma_ * total * (1.0 - 1e-9);
  double suffix = total;
  size_t prefix_len = 0;
  while (prefix_len < by_rank.size() && suffix >= required) {
    suffix -= weights_(by_rank[prefix_len].second);
    ++prefix_len;
  }

  SSJOIN_DCHECK(prefix_len >= 1,
                "non-empty set produced an empty weighted prefix "
                "(total weight {}, required {})", total, required);
  uint32_t interval = params_.size_filter ? IntervalIndex(total) : 0;
  for (size_t p = 0; p < prefix_len; ++p) {
    ElementId e = by_rank[p].second;
    if (!params_.size_filter) {
      out->push_back(HashCombine(0x57E1'67ED, Mix64(e)));
      continue;
    }
    for (uint32_t tag : {interval, interval + 1}) {
      out->push_back(HashCombine(Mix64(tag + 1) ^ 0x57E1'67ED, Mix64(e)));
    }
  }
}

}  // namespace ssjoin
