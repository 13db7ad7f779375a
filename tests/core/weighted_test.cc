#include "core/weighted.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/sorted_sets.h"

namespace ssjoin {
namespace {

WeightFunction SimpleWeights() {
  return [](ElementId e) { return static_cast<double>(e); };
}

TEST(WeightedMeasuresTest, WeightedSize) {
  std::vector<ElementId> s = {1, 2, 3};
  std::vector<ElementId> empty;
  EXPECT_DOUBLE_EQ(WeightedSize(s, SimpleWeights()), 6.0);
  EXPECT_DOUBLE_EQ(WeightedSize(empty, SimpleWeights()), 0.0);
}

TEST(WeightedMeasuresTest, WeightedIntersection) {
  std::vector<ElementId> a = {1, 2, 3, 5};
  std::vector<ElementId> b = {2, 3, 4};
  std::vector<ElementId> empty;
  EXPECT_DOUBLE_EQ(WeightedIntersection(a, b, SimpleWeights()), 5.0);
  EXPECT_DOUBLE_EQ(WeightedIntersection(a, empty, SimpleWeights()), 0.0);
}

TEST(WeightedMeasuresTest, WeightedJaccard) {
  std::vector<ElementId> a = {1, 2, 3};  // weight 6
  std::vector<ElementId> b = {2, 3, 4};  // weight 9; inter 5; union 10
  std::vector<ElementId> empty;
  EXPECT_DOUBLE_EQ(WeightedJaccard(a, b, SimpleWeights()), 0.5);
  EXPECT_DOUBLE_EQ(WeightedJaccard(empty, empty, SimpleWeights()), 1.0);
  EXPECT_DOUBLE_EQ(WeightedJaccard(a, a, SimpleWeights()), 1.0);
}

TEST(WeightedMeasuresTest, UnitWeightsReduceToUnweighted) {
  WeightFunction unit = [](ElementId) { return 1.0; };
  std::vector<ElementId> a = {1, 2, 3, 4};
  std::vector<ElementId> b = {3, 4, 5};
  EXPECT_DOUBLE_EQ(WeightedIntersection(a, b, unit),
                   SortedIntersectionSize(a, b));
  EXPECT_DOUBLE_EQ(WeightedJaccard(a, b, unit), 2.0 / 5.0);
}

TEST(WeightedJaccardPredicateTest, EvaluateIsExact) {
  WeightedJaccardPredicate p(0.5, SimpleWeights());
  std::vector<ElementId> a = {1, 2, 3};
  std::vector<ElementId> b = {2, 3, 4};
  EXPECT_TRUE(p.Evaluate(a, b));  // exactly 0.5 (boundary accepted)
  WeightedJaccardPredicate p51(0.51, SimpleWeights());
  EXPECT_FALSE(p51.Evaluate(a, b));
  EXPECT_EQ(p.Name(), "wjaccard>=0.5");
}

TEST(WeightedOverlapPredicateTest, EvaluateIsExact) {
  WeightedOverlapPredicate p(5.0, SimpleWeights());
  std::vector<ElementId> a = {1, 2, 3, 5};
  std::vector<ElementId> b = {2, 3, 4};
  EXPECT_TRUE(p.Evaluate(a, b));  // intersection weight exactly 5
  WeightedOverlapPredicate p6(6.0, SimpleWeights());
  EXPECT_FALSE(p6.Evaluate(a, b));
}

TEST(WeightedPredicatesTest, SizeHooksAreConservative) {
  // Weighted predicates cannot bound anything from cardinalities: the
  // derived hooks must be trivially permissive rather than wrong.
  WeightedJaccardPredicate p(0.9, SimpleWeights());
  EXPECT_DOUBLE_EQ(p.MinOverlap(10, 10), 0.0);
  auto range = p.JoinableSizes(10, 100);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->lo, 0u);
  EXPECT_EQ(range->hi, 100u);
}

TEST(WeightedHammingTest, DistanceAndPredicate) {
  std::vector<ElementId> a = {1, 2, 3};
  std::vector<ElementId> b = {2, 3, 4};
  // Symmetric difference {1, 4}: weight 1 + 4 = 5.
  EXPECT_DOUBLE_EQ(WeightedHammingDistance(a, b, SimpleWeights()), 5.0);
  EXPECT_DOUBLE_EQ(WeightedHammingDistance(a, a, SimpleWeights()), 0.0);
  std::vector<ElementId> empty;
  EXPECT_DOUBLE_EQ(WeightedHammingDistance(a, empty, SimpleWeights()),
                   6.0);

  WeightedHammingPredicate p5(5.0, SimpleWeights());
  EXPECT_TRUE(p5.Evaluate(a, b));  // boundary accepted
  WeightedHammingPredicate p4(4.0, SimpleWeights());
  EXPECT_FALSE(p4.Evaluate(a, b));
}

TEST(WeightedHammingTest, UnitWeightsReduceToUnweighted) {
  WeightFunction unit = [](ElementId) { return 1.0; };
  std::vector<ElementId> a = {1, 2, 3, 7};
  std::vector<ElementId> b = {2, 3, 9};
  EXPECT_DOUBLE_EQ(WeightedHammingDistance(a, b, unit),
                   SparseHammingDistance(a, b));
}

TEST(WeightedHammingTest, IdentityWithSizesAndIntersection) {
  // wHd = w(r) + w(s) - 2 w(r∩s), the weighted analog of Section 2.2.
  std::vector<ElementId> a = {1, 3, 5, 6};
  std::vector<ElementId> b = {2, 3, 6, 8};
  double lhs = WeightedHammingDistance(a, b, SimpleWeights());
  double rhs = WeightedSize(a, SimpleWeights()) +
               WeightedSize(b, SimpleWeights()) -
               2 * WeightedIntersection(a, b, SimpleWeights());
  EXPECT_DOUBLE_EQ(lhs, rhs);
}

TEST(ExpandWeightsToBagTest, CopiesMatchRoundedWeights) {
  SetCollection input = SetCollection::FromVectors({{1, 2}, {2}});
  WeightFunction weights = [](ElementId e) { return e == 1 ? 3.0 : 2.0; };
  SetCollection expanded = ExpandWeightsToBag(input, weights, 1.0);
  ASSERT_EQ(expanded.size(), 2u);
  EXPECT_EQ(expanded.set_size(0), 5u);  // 3 copies of 1 + 2 copies of 2
  EXPECT_EQ(expanded.set_size(1), 2u);
}

TEST(ExpandWeightsToBagTest, PreservesWeightedHamming) {
  // Weighted hamming (symmetric difference weight) maps to unweighted
  // hamming of the expanded bags when weights are integral.
  SetCollection input = SetCollection::FromVectors({{1, 2, 3}, {1, 2, 4}});
  WeightFunction weights = [](ElementId e) {
    return e == 3 || e == 4 ? 2.0 : 5.0;
  };
  SetCollection expanded = ExpandWeightsToBag(input, weights, 1.0);
  // Symmetric difference = {3, 4} with weight 2 + 2 = 4.
  EXPECT_EQ(SparseHammingDistance(expanded.set(0), expanded.set(1)), 4u);
}

TEST(ExpandWeightsToBagTest, ScaleMultipliesCopies) {
  // The Section 7 blow-up: scaling all weights by alpha multiplies the
  // bag sizes (and hence the required signature count) by alpha.
  SetCollection input = SetCollection::FromVectors({{1, 2}});
  WeightFunction weights = [](ElementId) { return 2.0; };
  SetCollection x1 = ExpandWeightsToBag(input, weights, 1.0);
  SetCollection x5 = ExpandWeightsToBag(input, weights, 5.0);
  EXPECT_EQ(x1.set_size(0), 4u);
  EXPECT_EQ(x5.set_size(0), 20u);
}

}  // namespace
}  // namespace ssjoin
