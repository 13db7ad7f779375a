#include "core/partenum.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>

#include "core/kernels/hash_kernels.h"
#include "util/check.h"
#include "util/hashing.h"

namespace ssjoin {

namespace {

constexpr uint64_t kSignatureCap = std::numeric_limits<uint64_t>::max();

// C(n, r) with saturation (values beyond any practical signature budget
// just need to compare as "too big").
uint64_t BinomialSaturating(uint64_t n, uint64_t r) {
  if (r > n) return 0;
  r = std::min(r, n - r);
  uint64_t result = 1;
  for (uint64_t i = 1; i <= r; ++i) {
    // result *= (n - r + i) / i, in an order that stays integral.
    uint64_t numerator = n - r + i;
    if (result > kSignatureCap / numerator) return kSignatureCap;
    result = result * numerator / i;
  }
  return result;
}

// Tag mixed into the signature hash before each second-level partition's
// elements, so partition boundaries are unambiguous in the hashed stream.
constexpr uint64_t kPartitionTag = 0x5353'4a6f'696e'2d50ULL;  // "SSJoin-P"

}  // namespace

uint64_t PartEnumParams::SignaturesPerSet() const {
  uint64_t per_first_level = BinomialSaturating(n2, n2 - k2());
  if (per_first_level == kSignatureCap) return kSignatureCap;
  if (per_first_level != 0 && n1 > kSignatureCap / per_first_level) {
    return kSignatureCap;
  }
  return static_cast<uint64_t>(n1) * per_first_level;
}

Status PartEnumParams::Validate() const {
  if (n1 == 0) return Status::InvalidArgument("PartEnum: n1 must be >= 1");
  if (n2 == 0) return Status::InvalidArgument("PartEnum: n2 must be >= 1");
  if (n1 > k + 1) {
    return Status::InvalidArgument(
        "PartEnum: requires n1 <= k + 1 (got n1=" + std::to_string(n1) +
        ", k=" + std::to_string(k) + ")");
  }
  if (static_cast<uint64_t>(n1) * n2 <= static_cast<uint64_t>(k) + 1) {
    return Status::InvalidArgument(
        "PartEnum: requires n1 * n2 > k + 1 (got n1=" + std::to_string(n1) +
        ", n2=" + std::to_string(n2) + ", k=" + std::to_string(k) + ")");
  }
  // n1*n2 > k+1 implies n2 > k2, so (n2 - k2)-subsets are non-empty.
  SSJOIN_DCHECK(n2 > k2(), "n2={} <= k2={} after validation", n2, k2());
  return Status::OK();
}

PartEnumParams PartEnumParams::Default(uint32_t k) {
  PartEnumParams params;
  params.k = k;
  params.n1 = std::max<uint32_t>(1, (k + 2) / 2);  // ceil((k+1)/2) => k2 <= 1
  params.n2 = 4;
  return params;
}

PartEnumParams PartEnumParams::FittedTo(uint32_t k, uint64_t seed) const {
  PartEnumParams fitted = *this;
  fitted.k = k;
  fitted.seed = seed;
  fitted.n1 = std::max<uint32_t>(1, std::min(n1, k + 1));
  fitted.n2 = std::max<uint32_t>(1, n2);
  while (static_cast<uint64_t>(fitted.n1) * fitted.n2 <=
         static_cast<uint64_t>(k) + 1) {
    ++fitted.n2;
  }
  return fitted;
}

std::vector<PartEnumParams> PartEnumParams::EnumerateValid(
    uint32_t k, uint64_t max_signatures, uint64_t seed) {
  std::vector<PartEnumParams> out;
  for (uint32_t n1 = 1; n1 <= k + 1; ++n1) {
    uint32_t min_n2 = (k + 1) / n1 + 1;  // smallest n2 with n1*n2 > k+1
    PartEnumParams base;
    base.k = k;
    base.n1 = n1;
    base.seed = seed;
    uint32_t prev_k2 = std::numeric_limits<uint32_t>::max();
    for (uint32_t n2 = min_n2;; ++n2) {
      PartEnumParams params = base;
      params.n2 = n2;
      if (params.SignaturesPerSet() > max_signatures) {
        // Signature count is monotonically nondecreasing in n2 for fixed
        // k2; but k2 is fixed by n1 alone, so once we exceed the budget we
        // are done with this n1.
        break;
      }
      // Skip degenerate repeats where increasing n2 changed nothing
      // structurally (k2 == 0 means one all-partitions subset; larger n2
      // only fragments the set further, which *does* change filtering, so
      // keep those).
      (void)prev_k2;
      prev_k2 = params.k2();
      if (params.Validate().ok()) out.push_back(params);
      if (n2 >= 31) break;  // PartEnumScheme's subset masks are 32-bit
    }
  }
  return out;
}

Result<PartEnumScheme> PartEnumScheme::Create(const PartEnumParams& params) {
  SSJOIN_RETURN_NOT_OK(params.Validate());
  if (params.n2 > 31) {
    return Status::InvalidArgument(
        "PartEnum: n2 > 31 unsupported (subset masks are 32-bit); no "
        "sensible configuration needs it");
  }
  if (params.SignaturesPerSet() > (1ULL << 24)) {
    return Status::InvalidArgument(
        "PartEnum: configuration generates more than 2^24 signatures per "
        "set; choose smaller n2 or larger n1");
  }
  return PartEnumScheme(params);
}

PartEnumScheme::PartEnumScheme(const PartEnumParams& params)
    : params_(params), k2_(params.k2()) {
  // Enumerate all (n2 - k2)-subsets of {0..n2-1} as bitmasks (Gosper).
  uint32_t size = params_.n2 - k2_;
  uint32_t mask = (1u << size) - 1;
  uint32_t limit = 1u << params_.n2;
  while (mask < limit) {
    subset_masks_.push_back(mask);
    if (mask == 0) break;  // size == 0 cannot happen (validated), guard anyway
    uint32_t c = mask & (~mask + 1);
    uint32_t r = mask + c;
    mask = (((r ^ mask) >> 2) / c) | r;
  }
  // Theorem 2: PartEnum generates exactly n1 * C(n2, k2) signatures
  // per set; the per-first-level count is the Gosper enumeration size.
  SSJOIN_CHECK(subset_masks_.size() ==
                   BinomialSaturating(params_.n2, params_.n2 - k2_),
               "enumerated {} second-level subsets, Theorem 2 expects "
               "C({}, {}) = {}",
               subset_masks_.size(), params_.n2, params_.n2 - k2_,
               BinomialSaturating(params_.n2, params_.n2 - k2_));
  // Precompute the fixed per-signature hash material (see partenum.h).
  level_hashers_.reserve(params_.n1);
  for (uint32_t i = 0; i < params_.n1; ++i) {
    SequenceHasher hasher(params_.seed);
    hasher.Add(i);
    level_hashers_.push_back(hasher);
  }
  mixed_subset_masks_.reserve(subset_masks_.size());
  for (uint32_t m : subset_masks_) mixed_subset_masks_.push_back(Mix64(m));
  mixed_partition_tags_.reserve(params_.n2);
  for (uint32_t j = 0; j < params_.n2; ++j) {
    mixed_partition_tags_.push_back(Mix64(kPartitionTag ^ j));
  }
}

std::string PartEnumScheme::Name() const {
  std::ostringstream os;
  os << "PEN(k=" << params_.k << ",n1=" << params_.n1 << ",n2=" << params_.n2
     << ")";
  return os.str();
}

uint32_t PartEnumScheme::PartitionOf(ElementId e) const {
  uint64_t h = Mix64(params_.seed ^ Mix64(e));
  return static_cast<uint32_t>(h % (static_cast<uint64_t>(params_.n1) *
                                    params_.n2));
}

void PartEnumScheme::Generate(std::span<const ElementId> set,
                              std::vector<Signature>* out) const {
  uint32_t n1 = params_.n1;
  uint32_t n2 = params_.n2;
  const size_t num_buckets = static_cast<size_t>(n1) * n2;
  const size_t n = set.size();
  // Mix every element once (4-wide, core/kernels/hash_kernels.h). The
  // mixes drive both the partition assignment (PartitionOf inlined below)
  // and — via AddMixed — every subset fold, replacing the old one-Mix64-
  // per-element-per-subset chain with a value-exact precomputed lookup.
  std::vector<uint64_t> mixed(n);
  kernels::MixBatch(set, mixed.data());
  // Bucket the mixed elements by second-level partition into one flat
  // CSR array (the old code built n1*n2 little vectors per call).
  // Scattering in set order keeps each bucket in set order, so equal
  // projections still hash equally.
  std::vector<uint32_t> part(n);
  std::vector<uint32_t> offsets(num_buckets + 1, 0);
  for (size_t idx = 0; idx < n; ++idx) {
    uint64_t h = Mix64(params_.seed ^ mixed[idx]);
    uint32_t p = static_cast<uint32_t>(h % num_buckets);
    SSJOIN_DCHECK_BOUNDS(p, num_buckets);
    part[idx] = p;
    ++offsets[p + 1];
  }
  for (size_t b = 1; b <= num_buckets; ++b) offsets[b] += offsets[b - 1];
  std::vector<uint64_t> bucketed(n);
  std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (size_t idx = 0; idx < n; ++idx) {
    bucketed[cursor[part[idx]]++] = mixed[idx];
  }
  size_t size_before = out->size();
  out->reserve(out->size() + static_cast<size_t>(n1) * subset_masks_.size());
  for (uint32_t i = 0; i < n1; ++i) {
    for (size_t m = 0; m < subset_masks_.size(); ++m) {
      // Signature <v[P], P> with P = union of partitions p_ij, j in mask,
      // sparse-encoded as hash(i, mask, elements of v within P). The
      // header folds reuse the mixes precomputed in the constructor.
      SequenceHasher hasher = level_hashers_[i];
      hasher.AddMixed(mixed_subset_masks_[m]);
      uint32_t remaining = subset_masks_[m];
      while (remaining != 0) {
        uint32_t j = static_cast<uint32_t>(std::countr_zero(remaining));
        remaining &= remaining - 1;
        SSJOIN_DCHECK(j < n2, "subset mask bit {} outside n2={}", j, n2);
        hasher.AddMixed(mixed_partition_tags_[j]);
        size_t b = static_cast<size_t>(i) * n2 + j;
        for (size_t idx = offsets[b]; idx < offsets[b + 1]; ++idx) {
          hasher.AddMixed(bucketed[idx]);
        }
      }
      out->push_back(hasher.Finish());
    }
  }
  // Theorem 2: exactly n1 * C(n2, n2 - k2) signatures per set, for every
  // set — the exactness proof counts on complete enumeration.
  SSJOIN_DCHECK(out->size() - size_before ==
                    static_cast<size_t>(n1) * subset_masks_.size(),
                "emitted {} signatures, Theorem 2 expects {}",
                out->size() - size_before,
                static_cast<size_t>(n1) * subset_masks_.size());
}

}  // namespace ssjoin
