#include "core/predicate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "core/kernels/intersect.h"
#include "util/check.h"

namespace ssjoin {

namespace {
// Relative epsilon applied to float-valued thresholds so that pairs lying
// exactly on a predicate boundary (e.g. jaccard exactly 0.8) are accepted
// regardless of rounding direction.
constexpr double kEps = 1e-9;

double Slack(double value) { return kEps * std::max(1.0, std::fabs(value)); }
}  // namespace

bool Predicate::Matches(uint32_t size_r, uint32_t size_s,
                        uint32_t overlap) const {
  double required = MinOverlap(size_r, size_s);
  return static_cast<double>(overlap) + Slack(required) >= required;
}

bool Predicate::Evaluate(std::span<const ElementId> r,
                         std::span<const ElementId> s) const {
  // Dispatched kernel (scalar merge / galloping, core/kernels/intersect.h);
  // bit-exact with util/sorted_sets.h's SortedIntersectionSize.
  uint32_t overlap = kernels::IntersectSize(r, s);
  return Matches(static_cast<uint32_t>(r.size()),
                 static_cast<uint32_t>(s.size()), overlap);
}

std::optional<SizeRange> Predicate::JoinableSizes(uint32_t size_r,
                                                  uint32_t max_size) const {
  // Generic derivation: size |s| is joinable iff some intersection value
  // can satisfy the predicate, i.e. MinOverlap <= min(|r|, |s|). The
  // feasible set may in principle be non-contiguous; we return its convex
  // envelope, which is complete (never excludes a joinable size).
  std::optional<uint32_t> lo, hi;
  for (uint32_t s = 0; s <= max_size; ++s) {
    double required = MinOverlap(size_r, s);
    double capacity = static_cast<double>(std::min(size_r, s));
    if (required <= capacity + Slack(required)) {
      if (!lo) lo = s;
      hi = s;
    }
  }
  if (!lo) return std::nullopt;
  return SizeRange{*lo, *hi};
}

std::optional<uint32_t> Predicate::MaxHamming(uint32_t size_r,
                                              uint32_t size_s) const {
  double required = MinOverlap(size_r, size_s);
  double min_overlap = std::max(0.0, std::ceil(required - Slack(required)));
  if (min_overlap > static_cast<double>(std::min(size_r, size_s))) {
    return std::nullopt;  // sizes cannot join at all
  }
  // Hd = |r| + |s| - 2|r∩s|, maximized at minimum feasible intersection.
  double hd = static_cast<double>(size_r) + size_s - 2.0 * min_overlap;
  return static_cast<uint32_t>(std::max(0.0, hd));
}

std::optional<uint32_t> Predicate::MaxHammingForSizeRange(uint32_t lo,
                                                          uint32_t hi) const {
  std::optional<uint32_t> best;
  for (uint32_t a = lo; a <= hi; ++a) {
    for (uint32_t b = a; b <= hi; ++b) {
      std::optional<uint32_t> hd = MaxHamming(a, b);
      if (hd && (!best || *hd > *best)) best = hd;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// JaccardPredicate

JaccardPredicate::JaccardPredicate(double gamma) : gamma_(gamma) {
  SSJOIN_CHECK(gamma > 0.0 && gamma <= 1.0,
               "jaccard threshold out of (0,1] (got {})", gamma);
}

std::string JaccardPredicate::Name() const {
  std::ostringstream os;
  os << "jaccard>=" << gamma_;
  return os.str();
}

double JaccardPredicate::MinOverlap(uint32_t size_r, uint32_t size_s) const {
  // Js >= gamma  <=>  |r∩s| >= gamma/(1+gamma) * (|r|+|s|)  (Section 2.3).
  return gamma_ / (1.0 + gamma_) *
         (static_cast<double>(size_r) + static_cast<double>(size_s));
}

bool JaccardPredicate::Matches(uint32_t size_r, uint32_t size_s,
                               uint32_t overlap) const {
  uint32_t union_size = size_r + size_s - overlap;
  if (union_size == 0) return true;  // both empty: identical sets
  return static_cast<double>(overlap) + Slack(gamma_ * union_size) >=
         gamma_ * static_cast<double>(union_size);
}

std::optional<SizeRange> JaccardPredicate::JoinableSizes(
    uint32_t size_r, uint32_t max_size) const {
  // Lemma 1: gamma <= |r|/|s| <= 1/gamma.
  double lo_f = gamma_ * size_r;
  double hi_f = static_cast<double>(size_r) / gamma_;
  uint32_t lo = static_cast<uint32_t>(std::ceil(lo_f - Slack(lo_f)));
  uint32_t hi = static_cast<uint32_t>(std::floor(hi_f + Slack(hi_f)));
  hi = std::min(hi, max_size);
  if (lo > hi) return std::nullopt;
  return SizeRange{lo, hi};
}

// ---------------------------------------------------------------------------
// HammingPredicate

HammingPredicate::HammingPredicate(uint32_t k) : k_(k) {}

std::string HammingPredicate::Name() const {
  return "hamming<=" + std::to_string(k_);
}

double HammingPredicate::MinOverlap(uint32_t size_r, uint32_t size_s) const {
  // Hd <= k  <=>  |r∩s| >= (|r| + |s| - k) / 2  (Section 2.2).
  return (static_cast<double>(size_r) + static_cast<double>(size_s) -
          static_cast<double>(k_)) /
         2.0;
}

bool HammingPredicate::Matches(uint32_t size_r, uint32_t size_s,
                               uint32_t overlap) const {
  // Exact integer form, no floats: Hd = |r| + |s| - 2|r∩s|.
  uint64_t hd = static_cast<uint64_t>(size_r) + size_s -
                2ULL * std::min({overlap, size_r, size_s});
  return hd <= k_;
}

std::optional<SizeRange> HammingPredicate::JoinableSizes(
    uint32_t size_r, uint32_t max_size) const {
  uint32_t lo = size_r > k_ ? size_r - k_ : 0;
  uint32_t hi = std::min(max_size, size_r + k_);
  if (lo > hi) return std::nullopt;
  return SizeRange{lo, hi};
}

// ---------------------------------------------------------------------------
// OverlapPredicate

OverlapPredicate::OverlapPredicate(uint32_t t) : t_(t) {}

std::string OverlapPredicate::Name() const {
  return "overlap>=" + std::to_string(t_);
}

double OverlapPredicate::MinOverlap(uint32_t, uint32_t) const {
  return static_cast<double>(t_);
}

// ---------------------------------------------------------------------------
// MaxFractionPredicate

MaxFractionPredicate::MaxFractionPredicate(double gamma) : gamma_(gamma) {
  SSJOIN_CHECK(gamma > 0.0 && gamma <= 1.0,
               "max-fraction threshold out of (0,1] (got {})", gamma);
}

std::string MaxFractionPredicate::Name() const {
  std::ostringstream os;
  os << "overlap>=" << gamma_ << "*max";
  return os.str();
}

double MaxFractionPredicate::MinOverlap(uint32_t size_r,
                                        uint32_t size_s) const {
  return gamma_ * static_cast<double>(std::max(size_r, size_s));
}

// ---------------------------------------------------------------------------
// MinRequiredOverlapForSize

double MinRequiredOverlapForSize(const Predicate& predicate, uint32_t size,
                                 uint32_t max_size) {
  std::optional<SizeRange> range =
      predicate.JoinableSizes(size, max_size * 2 + 16);
  if (!range) return std::numeric_limits<double>::infinity();
  double t = std::numeric_limits<double>::infinity();
  for (uint32_t partner = range->lo; partner <= range->hi; ++partner) {
    t = std::min(t, predicate.MinOverlap(size, partner));
  }
  return t;
}

// ---------------------------------------------------------------------------
// BuildJoinableSizeIntervals

std::vector<SizeRange> BuildJoinableSizeIntervals(const Predicate& predicate,
                                                  uint32_t max_size) {
  std::vector<SizeRange> intervals;
  uint32_t lo = 1;
  while (lo <= max_size) {
    // Give the predicate headroom beyond max_size so the interval's right
    // end is not artificially clipped (adjacency needs the true bound).
    uint32_t headroom = max_size * 2 + 16;
    std::optional<SizeRange> joinable = predicate.JoinableSizes(lo, headroom);
    uint32_t hi = joinable ? std::max(joinable->hi, lo) : lo;
    intervals.push_back(SizeRange{lo, hi});
    if (hi >= max_size) break;
    lo = hi + 1;
  }
  return intervals;
}

// ---------------------------------------------------------------------------
// ConjunctivePredicate

ConjunctivePredicate::ConjunctivePredicate(
    std::vector<LinearOverlapTerm> terms, std::string name)
    : terms_(std::move(terms)), name_(std::move(name)) {
  SSJOIN_CHECK(!terms_.empty(),
               "conjunctive predicate needs at least one term");
}

std::string ConjunctivePredicate::Name() const { return name_; }

double ConjunctivePredicate::MinOverlap(uint32_t size_r,
                                        uint32_t size_s) const {
  double required = terms_[0].Value(size_r, size_s);
  for (size_t i = 1; i < terms_.size(); ++i) {
    required = std::max(required, terms_[i].Value(size_r, size_s));
  }
  return required;
}

}  // namespace ssjoin
