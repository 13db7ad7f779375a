#include "core/predicate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/sorted_sets.h"

namespace ssjoin {
namespace {

TEST(JaccardPredicateTest, PaperExampleTwo) {
  // Example 2: sets share 6 of 10 distinct elements => Js = 0.6.
  JaccardPredicate p06(0.6);
  JaccardPredicate p061(0.61);
  EXPECT_TRUE(p06.Matches(8, 8, 6));   // |r|=|s|=8, overlap 6, union 10
  EXPECT_FALSE(p061.Matches(8, 8, 6));
}

TEST(JaccardPredicateTest, EvaluateOnSets) {
  JaccardPredicate p(0.5);
  std::vector<ElementId> a = {1, 2, 3, 4};
  std::vector<ElementId> b = {3, 4, 5, 6};
  // overlap 2, union 6 => 1/3 < 0.5.
  EXPECT_FALSE(p.Evaluate(a, b));
  std::vector<ElementId> c = {1, 2, 3};
  // overlap 3, union 4 => 0.75.
  EXPECT_TRUE(p.Evaluate(a, c));
}

TEST(JaccardPredicateTest, OverlapFormMatchesDefinition) {
  // Js >= gamma <=> overlap >= gamma/(1+gamma)(|r|+|s|) (Section 2.3).
  JaccardPredicate p(0.8);
  for (uint32_t r = 1; r <= 30; ++r) {
    for (uint32_t s = 1; s <= 30; ++s) {
      for (uint32_t o = 0; o <= std::min(r, s); ++o) {
        double js = static_cast<double>(o) / (r + s - o);
        EXPECT_EQ(p.Matches(r, s, o), js >= 0.8 - 1e-9)
            << r << " " << s << " " << o;
      }
    }
  }
}

TEST(JaccardPredicateTest, BothEmptyMatch) {
  JaccardPredicate p(0.9);
  EXPECT_TRUE(p.Matches(0, 0, 0));
  EXPECT_FALSE(p.Matches(0, 5, 0));
}

TEST(JaccardPredicateTest, JoinableSizesLemma1) {
  // Lemma 1: gamma <= |r|/|s| <= 1/gamma.
  JaccardPredicate p(0.9);
  auto range = p.JoinableSizes(9, 1000);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->lo, 9u);   // ceil(0.9 * 9) = 9 (8.1 -> 9)
  EXPECT_EQ(range->hi, 10u);  // floor(9 / 0.9) = 10
}

TEST(JaccardPredicateTest, JoinableSizesCapped) {
  JaccardPredicate p(0.5);
  auto range = p.JoinableSizes(10, 15);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->lo, 5u);
  EXPECT_EQ(range->hi, 15u);  // 20 capped at 15
}

TEST(JaccardPredicateTest, MaxHamming) {
  // Hd <= (1-gamma)/(1+gamma) * (|r|+|s|); for gamma=0.8, sizes 20/20:
  // overlap >= 0.8/1.8*40 = 17.78 -> 18; Hd <= 40 - 36 = 4.
  JaccardPredicate p(0.8);
  auto hd = p.MaxHamming(20, 20);
  ASSERT_TRUE(hd.has_value());
  EXPECT_EQ(*hd, 4u);
}

TEST(HammingPredicateTest, MatchesViaSymmetricDifference) {
  HammingPredicate p(4);
  // Example 1: |r|=|s|=8, overlap 6 => Hd = 4.
  EXPECT_TRUE(p.Matches(8, 8, 6));
  EXPECT_FALSE(HammingPredicate(3).Matches(8, 8, 6));
}

TEST(HammingPredicateTest, MinOverlapForm) {
  // Hd <= k <=> overlap >= (|r|+|s|-k)/2 (Section 2.2).
  HammingPredicate p(5);
  for (uint32_t r = 0; r <= 20; ++r) {
    for (uint32_t s = 0; s <= 20; ++s) {
      for (uint32_t o = 0; o <= std::min(r, s); ++o) {
        bool expected = (r + s - 2 * o) <= 5;
        EXPECT_EQ(p.Matches(r, s, o), expected);
      }
    }
  }
}

TEST(HammingPredicateTest, JoinableSizes) {
  HammingPredicate p(3);
  auto range = p.JoinableSizes(10, 100);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->lo, 7u);
  EXPECT_EQ(range->hi, 13u);
  auto low = p.JoinableSizes(2, 100);
  EXPECT_EQ(low->lo, 0u);
  EXPECT_EQ(low->hi, 5u);
}

TEST(HammingPredicateTest, MaxHammingIsK) {
  HammingPredicate p(6);
  EXPECT_EQ(*p.MaxHamming(10, 10), 6u);
  // Sizes 10 and 13: min overlap ceil((23-6)/2) = 9 <= 10, Hd max = 23-18=5.
  EXPECT_EQ(*p.MaxHamming(10, 13), 5u);
  // Sizes further apart than k cannot join.
  EXPECT_FALSE(p.MaxHamming(1, 10).has_value());
}

TEST(OverlapPredicateTest, IntroductionExample) {
  // "SSJoin with pred(r,s) = |r∩s| >= 20".
  OverlapPredicate p(20);
  EXPECT_TRUE(p.Matches(100, 50, 20));
  EXPECT_FALSE(p.Matches(100, 50, 19));
  // Joinable sizes are capped at max_size (unbounded in principle,
  // Section 6).
  auto range = p.JoinableSizes(100, 500);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->lo, 20u);
  EXPECT_EQ(range->hi, 500u);
}

TEST(MaxFractionPredicateTest, Section6Example) {
  // pred: |r∩s| >= 0.9 max(|r|,|s|); "given |r| = 100, only sets with
  // sizes between 90 and 111 can join, and Hd(r,s) <= 20".
  MaxFractionPredicate p(0.9);
  auto range = p.JoinableSizes(100, 1000);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->lo, 90u);
  EXPECT_EQ(range->hi, 111u);

  uint32_t max_hd = 0;
  for (uint32_t s = range->lo; s <= range->hi; ++s) {
    auto hd = p.MaxHamming(100, s);
    if (hd) max_hd = std::max(max_hd, *hd);
  }
  EXPECT_EQ(max_hd, 20u);
}

TEST(ConjunctivePredicateTest, GeneralClassForm) {
  // pred: |r∩s| >= 0.5|r| AND |r∩s| >= 0.5|s| (equivalent to the
  // max-fraction predicate at 0.5).
  ConjunctivePredicate conj(
      {LinearOverlapTerm{0, 0.5, 0}, LinearOverlapTerm{0, 0, 0.5}});
  MaxFractionPredicate maxfrac(0.5);
  for (uint32_t r = 1; r <= 20; ++r) {
    for (uint32_t s = 1; s <= 20; ++s) {
      for (uint32_t o = 0; o <= std::min(r, s); ++o) {
        EXPECT_EQ(conj.Matches(r, s, o), maxfrac.Matches(r, s, o));
      }
    }
  }
}

TEST(ConjunctivePredicateTest, HammingAsGeneralForm) {
  // Hd <= k expressed in the Section 2 form |r∩s| >= (|r|+|s|-k)/2.
  ConjunctivePredicate conj({LinearOverlapTerm{-2.5, 0.5, 0.5}});
  HammingPredicate hamming(5);
  for (uint32_t r = 0; r <= 15; ++r) {
    for (uint32_t s = 0; s <= 15; ++s) {
      for (uint32_t o = 0; o <= std::min(r, s); ++o) {
        EXPECT_EQ(conj.Matches(r, s, o), hamming.Matches(r, s, o))
            << r << " " << s << " " << o;
      }
    }
  }
}

TEST(BuildJoinableSizeIntervalsTest, PaperExampleFive) {
  // gamma = 0.9: I1=[1,1], I8=[8,8], I9=[9,10], I13=[17,18], I14=[19,21].
  JaccardPredicate p(0.9);
  std::vector<SizeRange> intervals = BuildJoinableSizeIntervals(p, 21);
  ASSERT_GE(intervals.size(), 14u);
  EXPECT_EQ(intervals[0].lo, 1u);
  EXPECT_EQ(intervals[0].hi, 1u);
  EXPECT_EQ(intervals[7].lo, 8u);
  EXPECT_EQ(intervals[7].hi, 8u);
  EXPECT_EQ(intervals[8].lo, 9u);
  EXPECT_EQ(intervals[8].hi, 10u);
  EXPECT_EQ(intervals[12].lo, 17u);
  EXPECT_EQ(intervals[12].hi, 18u);
  EXPECT_EQ(intervals[13].lo, 19u);
  EXPECT_EQ(intervals[13].hi, 21u);
}

TEST(BuildJoinableSizeIntervalsTest, CoversAllSizesContiguously) {
  for (double gamma : {0.5, 0.7, 0.8, 0.95}) {
    JaccardPredicate p(gamma);
    std::vector<SizeRange> intervals = BuildJoinableSizeIntervals(p, 200);
    uint32_t expected_lo = 1;
    for (const SizeRange& interval : intervals) {
      EXPECT_EQ(interval.lo, expected_lo);
      EXPECT_GE(interval.hi, interval.lo);
      expected_lo = interval.hi + 1;
    }
    EXPECT_GE(intervals.back().hi, 200u);
  }
}

TEST(BuildJoinableSizeIntervalsTest, AdjacencyProperty) {
  // Any two joinable sizes fall in the same or adjacent intervals — the
  // property size-based filtering relies on (Section 5).
  for (double gamma : {0.6, 0.8, 0.9}) {
    JaccardPredicate p(gamma);
    constexpr uint32_t kMax = 100;
    std::vector<SizeRange> intervals = BuildJoinableSizeIntervals(p, kMax);
    auto interval_of = [&](uint32_t size) {
      for (size_t i = 0; i < intervals.size(); ++i) {
        if (intervals[i].Contains(size)) return i;
      }
      return intervals.size();
    };
    for (uint32_t a = 1; a <= kMax; ++a) {
      auto range = p.JoinableSizes(a, kMax);
      if (!range) continue;
      for (uint32_t b = range->lo; b <= std::min(range->hi, kMax); ++b) {
        size_t ia = interval_of(a);
        size_t ib = interval_of(b);
        EXPECT_LE(ia > ib ? ia - ib : ib - ia, 1u)
            << "gamma=" << gamma << " sizes " << a << "," << b;
      }
    }
  }
}

TEST(MaxHammingForSizeRangeTest, JaccardMatchesClosedForm) {
  // Over [l, r], the jaccard hamming bound is 2(1-g)/(1+g)*r (Figure 6).
  JaccardPredicate p(0.8);
  auto bound = p.MaxHammingForSizeRange(10, 12);
  ASSERT_TRUE(bound.has_value());
  uint32_t closed_form = static_cast<uint32_t>(
      std::floor(2.0 * 0.2 / 1.8 * 12.0 + 1e-9));
  EXPECT_EQ(*bound, closed_form);
}

}  // namespace
}  // namespace ssjoin
