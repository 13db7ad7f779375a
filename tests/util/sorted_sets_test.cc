#include "util/sorted_sets.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <vector>

#include "util/random.h"

namespace ssjoin {
namespace {

TEST(SparseHammingTest, DisjointSets) {
  std::vector<uint32_t> a = {1, 2, 3};
  std::vector<uint32_t> b = {4, 5};
  EXPECT_EQ(SparseHammingDistance(a, b), 5u);
  EXPECT_EQ(SortedIntersectionSize(a, b), 0u);
}

TEST(SparseHammingTest, EmptySets) {
  std::vector<uint32_t> a = {};
  std::vector<uint32_t> b = {4, 5};
  EXPECT_EQ(SparseHammingDistance(a, b), 2u);
  EXPECT_EQ(SparseHammingDistance(a, a), 0u);
  EXPECT_EQ(SortedIntersectionSize(a, b), 0u);
}

TEST(SparseHammingTest, AgreesWithDenseOnRandomSets) {
  // Reference: the characteristic vectors over the domain, compared bit
  // by bit (Section 2.2's dense view).
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    constexpr uint32_t kDomain = 64;
    std::vector<uint32_t> a =
        SampleWithoutReplacement(kDomain, rng.Uniform(kDomain), rng);
    std::vector<uint32_t> b =
        SampleWithoutReplacement(kDomain, rng.Uniform(kDomain), rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::bitset<kDomain> va;
    std::bitset<kDomain> vb;
    for (uint32_t e : a) va.set(e);
    for (uint32_t e : b) vb.set(e);
    EXPECT_EQ(SparseHammingDistance(a, b), (va ^ vb).count());
    EXPECT_EQ(SortedIntersectionSize(a, b), (va & vb).count());
  }
}

TEST(SparseHammingTest, SymmetricDifferenceIdentity) {
  // Hd(s1, s2) = |s1| + |s2| - 2|s1 ∩ s2| (Section 2.2).
  Rng rng(22);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint32_t> a = SampleWithoutReplacement(100, 30, rng);
    std::vector<uint32_t> b = SampleWithoutReplacement(100, 20, rng);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    uint32_t inter = SortedIntersectionSize(a, b);
    EXPECT_EQ(SparseHammingDistance(a, b), a.size() + b.size() - 2 * inter);
  }
}

}  // namespace
}  // namespace ssjoin
