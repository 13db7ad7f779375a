// Differential suite for the kernel layer (DESIGN.md Section 11).
//
// Every kernel in src/core/kernels/ claims bit-exactness with the scalar
// reference it replaced. This suite enforces the claim three ways:
// exhaustively on all small-universe set pairs, randomly at realistic
// scale (including the skewed size ratios that trigger galloping), and
// end-to-end (join output must be byte-identical with the bitmap filter
// on, off, and at every width). CI runs it under ASan/UBSan via the
// `kernels` ctest label.

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/identity_scheme.h"
#include "core/kernels/bitmap_filter.h"
#include "core/kernels/hash_kernels.h"
#include "core/kernels/intersect.h"
#include "core/partenum.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "util/hashing.h"
#include "util/random.h"

namespace ssjoin::kernels {
namespace {

// ---------------------------------------------------------------------
// Intersection kernels
// ---------------------------------------------------------------------

// Independent oracle: std::set_intersection, no shared code with the
// kernels under test.
uint32_t ReferenceIntersect(const std::vector<uint32_t>& a,
                            const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return static_cast<uint32_t>(out.size());
}

void ExpectAllKernelsAgree(const std::vector<uint32_t>& a,
                           const std::vector<uint32_t>& b) {
  uint32_t expected = ReferenceIntersect(a, b);
  EXPECT_EQ(IntersectSizeWith(IntersectKernel::kScalar, a, b), expected);
  EXPECT_EQ(IntersectSizeWith(IntersectKernel::kGalloping, a, b), expected);
  EXPECT_EQ(IntersectSize(a, b), expected);
  // Symmetry: |a ∩ b| == |b ∩ a| through every path.
  EXPECT_EQ(IntersectSizeWith(IntersectKernel::kGalloping, b, a), expected);
  EXPECT_EQ(IntersectSize(b, a), expected);
}

// Every pair of subsets of a small universe: 2^9 * 2^9 pairs exercise
// all boundary interleavings (empty sides, runs of matches at the head,
// tail, both, neither) no random generator reliably hits.
TEST(IntersectKernels, ExhaustiveSmallUniverse) {
  constexpr uint32_t kUniverse = 9;
  std::vector<std::vector<uint32_t>> subsets;
  for (uint32_t mask = 0; mask < (1u << kUniverse); ++mask) {
    std::vector<uint32_t> s;
    for (uint32_t e = 0; e < kUniverse; ++e) {
      if (mask & (1u << e)) s.push_back(e);
    }
    subsets.push_back(std::move(s));
  }
  for (const auto& a : subsets) {
    for (const auto& b : subsets) {
      uint32_t expected = ReferenceIntersect(a, b);
      ASSERT_EQ(IntersectSizeWith(IntersectKernel::kScalar, a, b), expected);
      ASSERT_EQ(IntersectSizeWith(IntersectKernel::kGalloping, a, b),
                expected);
      ASSERT_EQ(IntersectSize(a, b), expected);
    }
  }
}

TEST(IntersectKernels, RandomizedDifferential) {
  Rng rng(20260808);
  for (int trial = 0; trial < 300; ++trial) {
    // Sizes sweep the dispatch policy's regimes: tiny, comparable and
    // skewed pairs, up to 700 elements a side.
    uint32_t universe = 64 + rng.Uniform(4000);
    uint32_t size_a = rng.Uniform(std::min<uint32_t>(universe, 700) + 1);
    uint32_t size_b = rng.Uniform(std::min<uint32_t>(universe, 700) + 1);
    std::vector<uint32_t> a = SampleWithoutReplacement(universe, size_a, rng);
    std::vector<uint32_t> b = SampleWithoutReplacement(universe, size_b, rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ExpectAllKernelsAgree(a, b);
  }
}

// Skewed ratios drive the dispatcher onto the galloping path
// (|large| >= kGallopRatio * |small|); sweep the boundary on both sides.
TEST(IntersectKernels, SkewedRatiosHitGalloping) {
  Rng rng(777);
  for (uint32_t small_size : {1u, 2u, 5u, 9u, 17u}) {
    for (size_t ratio : {kGallopRatio - 1, kGallopRatio, 4 * kGallopRatio}) {
      uint32_t large_size = static_cast<uint32_t>(small_size * ratio);
      uint32_t universe = large_size * 3 + 64;
      std::vector<uint32_t> small_set =
          SampleWithoutReplacement(universe, small_size, rng);
      std::vector<uint32_t> large_set =
          SampleWithoutReplacement(universe, large_size, rng);
      // Force some guaranteed hits (random overlap is thin at high skew).
      for (size_t i = 0; i < small_set.size(); i += 2) {
        large_set.push_back(small_set[i]);
      }
      std::sort(small_set.begin(), small_set.end());
      std::sort(large_set.begin(), large_set.end());
      large_set.erase(std::unique(large_set.begin(), large_set.end()),
                      large_set.end());
      ExpectAllKernelsAgree(small_set, large_set);
    }
  }
}

TEST(IntersectKernels, EdgeCases) {
  std::vector<uint32_t> empty;
  std::vector<uint32_t> one{42};
  std::vector<uint32_t> big(500);
  for (uint32_t i = 0; i < 500; ++i) big[i] = i * 3;
  ExpectAllKernelsAgree(empty, empty);
  ExpectAllKernelsAgree(empty, big);
  ExpectAllKernelsAgree(one, big);
  ExpectAllKernelsAgree(big, big);  // identical arrays: full overlap
  // Max-value elements must not wrap any kernel's comparisons.
  std::vector<uint32_t> top{0xfffffff0u, 0xfffffffeu, 0xffffffffu};
  std::vector<uint32_t> top2{0xfffffffeu, 0xffffffffu};
  ExpectAllKernelsAgree(top, top2);
}

TEST(IntersectKernels, DispatchCountersAreMonotone) {
  IntersectCounts before = IntersectDispatchCounts();
  std::vector<uint32_t> tiny_set{1, 2, 3};
  // The galloping path needs a small side past the tiny-operand cutoff
  // (> 8) and a large side at least kGallopRatio times bigger.
  std::vector<uint32_t> small_set(12);
  for (uint32_t i = 0; i < small_set.size(); ++i) small_set[i] = i * 5;
  std::vector<uint32_t> large_set(kGallopRatio * small_set.size() + 64);
  for (uint32_t i = 0; i < large_set.size(); ++i) large_set[i] = i * 2;
  (void)IntersectSize(tiny_set, tiny_set);    // tiny → scalar
  (void)IntersectSize(small_set, large_set);  // skewed → galloping
  // Comparable sizes of 64 or more elements stay on the scalar merge.
  ASSERT_GE(large_set.size(), 64u);
  (void)IntersectSize(large_set, large_set);
  IntersectCounts after = IntersectDispatchCounts();
  EXPECT_EQ(after.scalar, before.scalar + 2);
  EXPECT_EQ(after.galloping, before.galloping + 1);
}

TEST(IntersectKernels, KernelNames) {
  EXPECT_STREQ(IntersectKernelName(IntersectKernel::kScalar), "scalar");
  EXPECT_STREQ(IntersectKernelName(IntersectKernel::kGalloping),
               "galloping");
}

// ---------------------------------------------------------------------
// Bitmap pre-filter
// ---------------------------------------------------------------------

// The exactness contract: the filter may never reject a pair the exact
// predicate accepts. Checked for every width against both jaccard and
// hamming predicates over random collections dense enough to contain
// many true matches.
TEST(BitmapFilter, NeverRejectsTrueMatch) {
  Rng rng(99);
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < 120; ++i) {
    sets.push_back(SampleWithoutReplacement(60, 1 + rng.Uniform(20), rng));
  }
  // Clones and near-clones guarantee true matches at high thresholds.
  for (int i = 0; i < 30; ++i) {
    auto clone = sets[i * 2];
    if (i % 3 == 0 && clone.size() > 1) clone.pop_back();
    sets.push_back(std::move(clone));
  }
  SetCollection input = SetCollection::FromVectors(sets);
  JaccardPredicate jaccard(0.7);
  HammingPredicate hamming(4);
  for (uint32_t bits : kBitmapWidths) {
    BitmapTable table = BitmapTable::Build(input, bits);
    size_t true_matches = 0;
    for (SetId r = 0; r < input.size(); ++r) {
      for (SetId s = r + 1; s < input.size(); ++s) {
        auto set_r = input.set(r);
        auto set_s = input.set(s);
        uint32_t size_r = static_cast<uint32_t>(set_r.size());
        uint32_t size_s = static_cast<uint32_t>(set_s.size());
        // The upper bound must actually bound the overlap, always.
        uint32_t bound = BitmapTable::OverlapUpperBound(
            table.row(r), table.row(s), table.words_per_set(), size_r,
            size_s);
        uint32_t overlap = ReferenceIntersect(
            {set_r.begin(), set_r.end()}, {set_s.begin(), set_s.end()});
        ASSERT_GE(bound, overlap) << "width " << bits;
        for (const Predicate* predicate :
             {static_cast<const Predicate*>(&jaccard),
              static_cast<const Predicate*>(&hamming)}) {
          if (predicate->Evaluate(set_r, set_s)) {
            ++true_matches;
            ASSERT_TRUE(
                table.MayMatch(*predicate, r, s, size_r, size_s))
                << "width " << bits << " pruned true match (" << r << ","
                << s << ")";
          }
        }
      }
    }
    EXPECT_GT(true_matches, 0u);  // the test must have had teeth
  }
}

TEST(BitmapFilter, PrunesObviousNonMatches) {
  // Disjoint sets of equal size: overlap bound from a full-width XOR
  // should fail a high-jaccard predicate for most pairs. Not required
  // for correctness — but a filter that never prunes is dead weight, so
  // pin the behaviour on a clearly prunable workload.
  Rng rng(5);
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < 40; ++i) {
    std::vector<ElementId> s;
    for (int e = 0; e < 12; ++e) s.push_back(i * 1000 + e);  // disjoint
    sets.push_back(std::move(s));
  }
  SetCollection input = SetCollection::FromVectors(sets);
  JaccardPredicate predicate(0.9);
  BitmapTable table = BitmapTable::Build(input, 256);
  size_t pruned = 0, pairs = 0;
  for (SetId r = 0; r < input.size(); ++r) {
    for (SetId s = r + 1; s < input.size(); ++s) {
      ++pairs;
      if (!table.MayMatch(predicate, r, s, 12, 12)) ++pruned;
    }
  }
  EXPECT_GT(pruned, pairs / 2);
}

TEST(BitmapFilter, ParallelBuildMatchesSerial) {
  Rng rng(31);
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < 50; ++i) {
    sets.push_back(SampleWithoutReplacement(500, 1 + rng.Uniform(30), rng));
  }
  SetCollection input = SetCollection::FromVectors(sets);
  BitmapTable serial = BitmapTable::Build(input, 128);
  BitmapTable sharded = BitmapTable::Prepare(input.size(), 128);
  sharded.BuildRange(input, 0, 20);
  sharded.BuildRange(input, 20, input.size());
  for (SetId id = 0; id < input.size(); ++id) {
    for (size_t w = 0; w < serial.words_per_set(); ++w) {
      ASSERT_EQ(serial.row(id)[w], sharded.row(id)[w]);
    }
  }
}

TEST(BitmapFilter, ValidBits) {
  EXPECT_TRUE(IsValidBitmapBits(0));
  EXPECT_TRUE(IsValidBitmapBits(64));
  EXPECT_TRUE(IsValidBitmapBits(128));
  EXPECT_TRUE(IsValidBitmapBits(256));
  EXPECT_FALSE(IsValidBitmapBits(1));
  EXPECT_FALSE(IsValidBitmapBits(32));
  EXPECT_FALSE(IsValidBitmapBits(512));
}

// ---------------------------------------------------------------------
// Hash kernels
// ---------------------------------------------------------------------

// Length sweep 0..20 covers every unroll tail; the batched kernels must
// be value-exact with the scalar chain, element for element.
//
// GCC 12 at -O2 inlines the appending MixBatch overload into this body,
// pins the 1-element `appended{7}` allocation, and falsely flags the
// vector's own resize as out of bounds (-Warray-bounds); suppress for
// this test only so the -Werror release preset builds.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#endif
TEST(HashKernels, MixBatchMatchesScalar) {
  Rng rng(123);
  for (size_t n = 0; n <= 20; ++n) {
    std::vector<uint32_t> values(n);
    for (auto& v : values) v = rng.Next32();
    std::vector<uint64_t> mixed(n, 0);
    MixBatch(values, mixed.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(mixed[i], Mix64(values[i]));
    }
    // Appending overload.
    std::vector<uint64_t> appended{7};
    MixBatch(values, &appended);
    ASSERT_EQ(appended.size(), n + 1);
    ASSERT_EQ(appended[0], 7u);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(appended[i + 1], Mix64(values[i]));
    }
  }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

TEST(HashKernels, HashCombineBatchMatchesScalar) {
  Rng rng(456);
  for (size_t n = 0; n <= 20; ++n) {
    uint64_t seed = rng.Next64();
    std::vector<uint64_t> values(n);
    for (auto& v : values) v = rng.Next64();
    std::vector<uint64_t> batched = values;
    HashCombineBatch(seed, batched);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batched[i], HashCombine(seed, values[i]));
    }
  }
}

TEST(HashKernels, MixNarrowBatchMatchesScalar) {
  Rng rng(789);
  for (int bits : {1, 8, 16, 24, 32}) {
    for (size_t n = 0; n <= 10; ++n) {
      std::vector<uint64_t> values(n);
      for (auto& v : values) v = rng.Next64();
      std::vector<uint64_t> batched = values;
      MixNarrowBatch(batched, bits);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(batched[i], NarrowHash(Mix64(values[i]), bits));
      }
    }
  }
}

TEST(HashKernels, AddMixedMatchesAdd) {
  // The split fold (precomputed Mix64 + AddMixed) must reproduce the
  // scalar Add chain exactly — this is what PartEnum/WtEnum rely on.
  Rng rng(1010);
  for (int trial = 0; trial < 50; ++trial) {
    uint64_t seed = rng.Next64();
    size_t n = rng.Uniform(12);
    std::vector<uint64_t> values(n);
    for (auto& v : values) v = rng.Next64();
    SequenceHasher scalar(seed);
    SequenceHasher split(seed);
    for (uint64_t v : values) {
      scalar.Add(v);
      split.AddMixed(Mix64(v));
    }
    ASSERT_EQ(scalar.Finish(), split.Finish());
  }
}

// ---------------------------------------------------------------------
// End-to-end: the bitmap filter must not change join output
// ---------------------------------------------------------------------

SetCollection JoinWorkload() {
  Rng rng(4242);
  std::vector<std::vector<ElementId>> sets;
  for (int i = 0; i < 150; ++i) {
    sets.push_back(SampleWithoutReplacement(120, 2 + rng.Uniform(14), rng));
  }
  for (int i = 0; i < 40; ++i) sets.push_back(sets[i * 3]);  // duplicates
  return SetCollection::FromVectors(sets);
}

void ExpectLegacyStatsEqual(const JoinStats& a, const JoinStats& b) {
  EXPECT_EQ(a.signatures_r, b.signatures_r);
  EXPECT_EQ(a.signatures_s, b.signatures_s);
  EXPECT_EQ(a.signature_collisions, b.signature_collisions);
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.false_positives, b.false_positives);
}

TEST(BitmapFilterJoin, OutputIdenticalAtEveryWidth) {
  SetCollection input = JoinWorkload();
  IdentityScheme scheme;
  JaccardPredicate predicate(0.8);
  JoinRequest off;
  off.left = &input;
  off.scheme = &scheme;
  off.predicate = &predicate;
  off.options.bitmap_bits = 0;
  JoinResult baseline = Join(off);
  ASSERT_TRUE(baseline.status.ok());
  EXPECT_EQ(baseline.stats.bitmap_filter_checked, 0u);
  EXPECT_EQ(baseline.stats.bitmap_filter_pruned, 0u);
  EXPECT_GT(baseline.stats.results, 0u);
  for (uint32_t bits : kBitmapWidths) {
    JoinRequest on = off;
    on.options.bitmap_bits = bits;
    JoinResult filtered = Join(on);
    ASSERT_TRUE(filtered.status.ok());
    EXPECT_EQ(filtered.pairs, baseline.pairs) << "bits " << bits;
    ExpectLegacyStatsEqual(filtered.stats, baseline.stats);
    // Every candidate passes through the filter exactly once.
    EXPECT_EQ(filtered.stats.bitmap_filter_checked,
              filtered.stats.candidates);
    EXPECT_LE(filtered.stats.bitmap_filter_pruned,
              filtered.stats.false_positives);
  }
}

TEST(BitmapFilterJoin, ParallelMatchesSerialWithFilter) {
  SetCollection input = JoinWorkload();
  IdentityScheme scheme;
  JaccardPredicate predicate(0.8);
  JoinOptions serial;
  serial.bitmap_bits = 128;
  JoinResult one = Join(SelfJoinRequest(input, scheme, predicate, serial));
  ASSERT_TRUE(one.status.ok());
  JoinOptions parallel = serial;
  parallel.num_threads = 4;
  JoinResult four = Join(SelfJoinRequest(input, scheme, predicate, parallel));
  ASSERT_TRUE(four.status.ok());
  EXPECT_EQ(one.pairs, four.pairs);
  ExpectLegacyStatsEqual(one.stats, four.stats);
  EXPECT_EQ(one.stats.bitmap_filter_checked,
            four.stats.bitmap_filter_checked);
  EXPECT_EQ(one.stats.bitmap_filter_pruned,
            four.stats.bitmap_filter_pruned);
}

TEST(BitmapFilterJoin, InvalidWidthRejected) {
  SetCollection input = SetCollection::FromVectors({{1, 2}, {1, 2}});
  IdentityScheme scheme;
  JaccardPredicate predicate(0.8);
  JoinRequest request;
  request.left = &input;
  request.scheme = &scheme;
  request.predicate = &predicate;
  request.options.bitmap_bits = 100;
  JoinResult result = Join(request);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
      << result.status.ToString();
}

TEST(BitmapFilterJoin, BinaryJoinIdenticalWithFilter) {
  Rng rng(606);
  std::vector<std::vector<ElementId>> rv, sv;
  for (int i = 0; i < 60; ++i) {
    rv.push_back(SampleWithoutReplacement(90, 2 + rng.Uniform(10), rng));
    sv.push_back(SampleWithoutReplacement(90, 2 + rng.Uniform(10), rng));
  }
  for (int i = 0; i < 20; ++i) sv[i] = rv[i * 2];
  SetCollection r = SetCollection::FromVectors(rv);
  SetCollection s = SetCollection::FromVectors(sv);
  IdentityScheme scheme;
  JaccardPredicate predicate(0.75);
  JoinOptions off;
  off.bitmap_bits = 0;
  JoinResult baseline = Join(BinaryJoinRequest(r, s, scheme, predicate, off));
  ASSERT_TRUE(baseline.status.ok());
  EXPECT_GT(baseline.stats.results, 0u);
  JoinOptions on;
  on.bitmap_bits = 128;
  JoinResult filtered = Join(BinaryJoinRequest(r, s, scheme, predicate, on));
  ASSERT_TRUE(filtered.status.ok());
  EXPECT_EQ(filtered.pairs, baseline.pairs);
  ExpectLegacyStatsEqual(filtered.stats, baseline.stats);
  EXPECT_EQ(filtered.stats.bitmap_filter_checked,
            filtered.stats.candidates);
}

// PartEnum end-to-end: the batched siggen kernels (MixBatch / AddMixed /
// HashCombineBatch) claim value-exactness; the real scheme over a real
// workload pins the claim where it matters — any hash drift changes the
// signature multiset and with it candidates/collisions.
TEST(SiggenKernels, PartEnumJoinUnchangedByBatching) {
  SetCollection input = JoinWorkload();
  PartEnumParams params = PartEnumParams::Default(4);
  auto scheme = PartEnumScheme::Create(params);
  ASSERT_TRUE(scheme.ok());
  HammingPredicate predicate(4);
  JoinResult result = Join(SelfJoinRequest(input, *scheme, predicate));
  ASSERT_TRUE(result.status.ok());
  // The duplicated sets (JoinWorkload appends 40 clones) are Hd 0 from
  // their originals, so PartEnum must find at least those 40 pairs.
  EXPECT_GE(result.stats.results, 40u);
  // Signature count is fixed by Theorem 2 regardless of kernel path.
  EXPECT_EQ(result.stats.signatures_r,
            input.size() * params.SignaturesPerSet());
}

}  // namespace
}  // namespace ssjoin::kernels
