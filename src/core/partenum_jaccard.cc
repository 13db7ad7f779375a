#include "core/partenum_jaccard.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>

#include "core/kernels/hash_kernels.h"
#include "util/check.h"
#include "util/hashing.h"

namespace ssjoin {

namespace {
// Signature for the empty set: jaccard treats two empty sets as identical
// (empty union), so all empty sets must share one signature.
constexpr Signature kEmptySetSignature = 0xE317'70AD'5E75'0000ULL;
}  // namespace

std::vector<SizeRange> PartEnumJaccardScheme::BuildIntervals(
    double gamma, uint32_t max_set_size) {
  SSJOIN_CHECK(gamma > 0.0 && gamma <= 1.0,
               "jaccard threshold out of (0,1] (got {})", gamma);
  std::vector<SizeRange> intervals;
  uint32_t lo = 1;
  while (lo <= max_set_size) {
    // r_i = floor(l_i / gamma), with a tiny epsilon so that e.g.
    // 9 / 0.9 = 10.000000000000002 does not round up spuriously.
    double hi_f = static_cast<double>(lo) / gamma;
    uint32_t hi = static_cast<uint32_t>(std::floor(hi_f + 1e-9));
    hi = std::max(hi, lo);
    intervals.push_back(SizeRange{lo, hi});
    if (hi >= max_set_size) break;
    lo = hi + 1;
  }
  return intervals;
}

uint32_t PartEnumJaccardScheme::IntervalThreshold(double gamma,
                                                  uint32_t interval_right) {
  // k_i = floor(2 (1-gamma)/(1+gamma) r_i); hamming distance is integral,
  // so the floor preserves completeness.
  double k = 2.0 * (1.0 - gamma) / (1.0 + gamma) *
             static_cast<double>(interval_right);
  return static_cast<uint32_t>(std::floor(k + 1e-9));
}

uint32_t PartEnumJaccardScheme::EquisizedHammingThreshold(uint32_t set_size,
                                                          double gamma) {
  double k = 2.0 * static_cast<double>(set_size) * (1.0 - gamma) /
             (1.0 + gamma);
  return static_cast<uint32_t>(std::floor(k + 1e-9));
}

Result<PartEnumJaccardScheme> PartEnumJaccardScheme::Create(
    const PartEnumJaccardParams& params) {
  if (!(params.gamma > 0.0 && params.gamma <= 1.0)) {
    return Status::InvalidArgument("PartEnumJaccard: gamma must be in (0,1]");
  }
  if (params.max_set_size == 0) {
    return Status::InvalidArgument(
        "PartEnumJaccard: max_set_size must be >= the largest input set");
  }
  PartEnumJaccardScheme scheme;
  scheme.gamma_ = params.gamma;
  scheme.max_set_size_ = params.max_set_size;
  scheme.intervals_ = BuildIntervals(params.gamma, params.max_set_size);

  std::function<PartEnumParams(uint32_t)> chooser = params.chooser;
  if (!chooser) {
    chooser = [](uint32_t k) { return PartEnumParams::Default(k); };
  }

  // Sub-instance i covers sizes in I_{i-1} ∪ I_i; its threshold derives
  // from r_i. One extra trailing instance serves the (i+1)-tags of sets in
  // the last interval; its threshold derives from the hypothetical next
  // interval's right end floor((r_last + 1) / gamma).
  size_t num_instances = scheme.intervals_.size() + 1;
  for (size_t i = 0; i < num_instances; ++i) {
    uint32_t right;
    if (i < scheme.intervals_.size()) {
      right = scheme.intervals_[i].hi;
    } else {
      double hi_f =
          static_cast<double>(scheme.intervals_.back().hi + 1) / params.gamma;
      right = static_cast<uint32_t>(std::floor(hi_f + 1e-9));
    }
    const uint32_t k = IntervalThreshold(params.gamma, right);
    auto instance =
        PartEnumScheme::Create(chooser(k).FittedTo(k, params.seed));
    if (!instance.ok()) return instance.status();
    scheme.instances_.push_back(
        std::make_unique<PartEnumScheme>(std::move(instance).value()));
  }
  return scheme;
}

std::string PartEnumJaccardScheme::Name() const {
  std::ostringstream os;
  os << "PEN(jaccard>=" << gamma_ << ",intervals=" << intervals_.size()
     << ")";
  return os.str();
}

size_t PartEnumJaccardScheme::IntervalIndex(uint32_t size) const {
  SSJOIN_DCHECK(size >= 1 && size <= max_set_size_,
                "size {} outside covered range [1, {}]", size,
                max_set_size_);
  // Intervals are contiguous and sorted; binary search on lo.
  size_t lo = 0, hi = intervals_.size() - 1;
  while (lo < hi) {
    size_t mid = (lo + hi + 1) / 2;
    if (intervals_[mid].lo <= size) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  // Figure 6 invariant: the contiguous intervals I_0..I_m tile
  // [1, max_set_size], so the search must land in a containing one.
  SSJOIN_CHECK(intervals_[lo].Contains(size),
               "size {} not covered by interval {} [{}, {}]", size, lo,
               intervals_[lo].lo, intervals_[lo].hi);
  return lo;
}

uint64_t PartEnumJaccardScheme::SignaturesForSize(uint32_t size) const {
  if (size == 0) return 1;
  size_t i = IntervalIndex(size);
  return instances_[i]->params().SignaturesPerSet() +
         instances_[i + 1]->params().SignaturesPerSet();
}

void PartEnumJaccardScheme::Generate(std::span<const ElementId> set,
                                     std::vector<Signature>* out) const {
  if (set.empty()) {
    out->push_back(kEmptySetSignature);
    return;
  }
  SSJOIN_CHECK(set.size() <= max_set_size_,
               "set of {} elements exceeds the indexed maximum {}",
               set.size(), max_set_size_);
  size_t i = IntervalIndex(static_cast<uint32_t>(set.size()));
  // Steps 3-6 of Figure 6: emit <i, sg> for PE[i] and <i+1, sg> for
  // PE[i+1]; the tag keeps signatures of different sub-instances from
  // colliding.
  for (size_t tag : {i, i + 1}) {
    size_t before = out->size();
    instances_[tag]->Generate(set, out);
    // Batched tag combine (4-wide, core/kernels/hash_kernels.h);
    // value-exact with HashCombine(Mix64(tag + 1), sig) per signature.
    kernels::HashCombineBatch(
        Mix64(static_cast<uint64_t>(tag) + 1),
        std::span<Signature>(out->data() + before, out->size() - before));
  }
}

}  // namespace ssjoin
