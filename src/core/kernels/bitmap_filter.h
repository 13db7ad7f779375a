// Bitmap pre-filter (arXiv 1711.07295 style; DESIGN.md Section 11).
//
// Each input set gets a 128-bit signature built at verification load
// time by XOR-toggling bit Mix64(e) % 128 for every element e. XOR
// (rather than OR) is what makes the filter exact:
//
//   sig(r) ^ sig(s) == xor-signature of the symmetric difference r Δ s,
//
// because shared elements toggle the same bit in both signatures and
// cancel. Each element of r Δ s flips at most one bit, and flips can
// only cancel pairwise, so
//
//   popcount(sig(r) ^ sig(s)) <= |r Δ s| = Hd(r, s).
//
// With Hd bounded below, the overlap is bounded above:
//
//   |r ∩ s| = (|r| + |s| - Hd) / 2
//           <= floor((|r| + |s| - popcount(sig_r ^ sig_s)) / 2),
//
// also capped by min(|r|, |s|). A candidate whose overlap *upper bound*
// already fails Predicate::Matches cannot satisfy the predicate — every
// predicate in the paper's class (Section 2: AND of |r∩s| >= e_i) is
// monotone in the overlap — so it is pruned without touching the
// element arrays. The filter never rejects a true match (enforced by
// tests/core/kernels_test.cc); predicates that carry no size-based
// information (the weighted family reports MinOverlap == 0) simply never
// prune, which is safe and costs two cache lines per candidate.
//
// Width: 128 bits, fixed. Two words are one popcount pair per candidate,
// and typical token sets (tens to low hundreds of elements) half-fill
// them, which keeps the bound tight (DESIGN.md Section 11.2;
// BM_BitmapBuild / BM_BitmapMayMatch in bench/bench_micro_components.cc
// measure the build and the check).

#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/predicate.h"
#include "data/collection.h"

namespace ssjoin::kernels {

/// The signature width: two 64-bit words per set.
inline constexpr uint32_t kBitmapBits = 128;
inline constexpr size_t kBitmapWords = kBitmapBits / 64;

/// Per-set XOR bit signatures for one collection, stored as a flat
/// row-major word array (kBitmapWords words per set).
class BitmapTable {
 public:
  BitmapTable() = default;

  /// Builds signatures for every set of `input`. The build is per-set
  /// independent and deterministic; callers may shard it (BuildRange)
  /// across threads.
  static BitmapTable Build(const SetCollection& input);

  /// Builds rows [begin, end) into an existing table created with
  /// Prepare() — the parallel build path.
  void BuildRange(const SetCollection& input, size_t begin, size_t end);

  /// Allocates (zeroed) rows for `num_sets` sets without filling them.
  static BitmapTable Prepare(size_t num_sets);

  size_t size_bytes() const { return words_.size() * sizeof(uint64_t); }

  const uint64_t* row(SetId id) const {
    return words_.data() + static_cast<size_t>(id) * kBitmapWords;
  }

  /// popcount(sig(a) ^ sig(b)) — the Hamming-distance lower bound.
  static uint32_t XorPopcount(const uint64_t* a, const uint64_t* b) {
    uint32_t total = 0;
    for (size_t w = 0; w < kBitmapWords; ++w) {
      total += static_cast<uint32_t>(std::popcount(a[w] ^ b[w]));
    }
    return total;
  }

  /// The overlap upper bound for a candidate pair:
  /// min(min(|r|,|s|), floor((|r|+|s| - popcount(xor)) / 2)). The rows
  /// may come from two different tables (binary join).
  static uint32_t OverlapUpperBound(const uint64_t* row_r,
                                    const uint64_t* row_s, uint32_t size_r,
                                    uint32_t size_s) {
    uint32_t hd_lower = XorPopcount(row_r, row_s);
    uint32_t sum = size_r + size_s;
    uint32_t from_hd = hd_lower >= sum ? 0 : (sum - hd_lower) / 2;
    uint32_t cap = size_r < size_s ? size_r : size_s;
    return from_hd < cap ? from_hd : cap;
  }

  /// True when the pair can still satisfy the predicate: the bound above
  /// is fed through the predicate's own Matches so boundary epsilons are
  /// honored. False means "provably no match" — safe to skip Evaluate.
  static bool MayMatch(const Predicate& predicate, const uint64_t* row_r,
                       const uint64_t* row_s, uint32_t size_r,
                       uint32_t size_s) {
    return predicate.Matches(size_r, size_s,
                             OverlapUpperBound(row_r, row_s, size_r, size_s));
  }

  /// Self-join convenience: both rows from this table.
  bool MayMatch(const Predicate& predicate, SetId id_r, SetId id_s,
                uint32_t size_r, uint32_t size_s) const {
    return MayMatch(predicate, row(id_r), row(id_s), size_r, size_s);
  }

 private:
  std::vector<uint64_t> words_;
};

}  // namespace ssjoin::kernels
