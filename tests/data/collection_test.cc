#include "data/collection.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/hashing.h"
#include "util/sorted_sets.h"

namespace ssjoin {
namespace {

TEST(SetCollectionTest, EmptyCollection) {
  SetCollection c;
  EXPECT_EQ(c.size(), 0u);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.total_elements(), 0u);
  EXPECT_DOUBLE_EQ(c.average_set_size(), 0.0);
  EXPECT_EQ(c.max_set_size(), 0u);
  EXPECT_EQ(c.min_set_size(), 0u);
}

TEST(SetCollectionBuilderTest, SortsAndDeduplicates) {
  SetCollectionBuilder builder;
  SetId id = builder.Add({5, 1, 3, 1, 5});
  EXPECT_EQ(id, 0u);
  SetCollection c = builder.Build();
  ASSERT_EQ(c.size(), 1u);
  std::span<const ElementId> s = c.set(0);
  EXPECT_EQ(std::vector<ElementId>(s.begin(), s.end()),
            (std::vector<ElementId>{1, 3, 5}));
}

TEST(SetCollectionBuilderTest, EmptySetAllowed) {
  SetCollectionBuilder builder;
  builder.Add(std::vector<ElementId>{});
  builder.Add({1});
  SetCollection c = builder.Build();
  EXPECT_EQ(c.set_size(0), 0u);
  EXPECT_EQ(c.set_size(1), 1u);
}

TEST(SetCollectionBuilderTest, BuildResetsBuilder) {
  SetCollectionBuilder builder;
  builder.Add({1, 2});
  SetCollection first = builder.Build();
  builder.Add({3});
  SetCollection second = builder.Build();
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(second.size(), 1u);
  EXPECT_EQ(second.set(0)[0], 3u);
}

TEST(SetCollectionTest, Stats) {
  SetCollection c =
      SetCollection::FromVectors({{1, 2, 3}, {2, 3}, {4}, {1, 2, 3, 4, 5}});
  EXPECT_EQ(c.size(), 4u);
  EXPECT_EQ(c.total_elements(), 11u);
  EXPECT_DOUBLE_EQ(c.average_set_size(), 11.0 / 4.0);
  EXPECT_EQ(c.max_set_size(), 5u);
  EXPECT_EQ(c.min_set_size(), 1u);
  EXPECT_EQ(c.max_element(), 5u);

  CollectionStats stats = ComputeStats(c);
  EXPECT_EQ(stats.num_sets, 4u);
  EXPECT_EQ(stats.distinct_elements, 5u);
  EXPECT_FALSE(ToString(stats).empty());
}

TEST(SetCollectionTest, SampleReturnsSubset) {
  std::vector<std::vector<ElementId>> sets;
  for (ElementId i = 0; i < 100; ++i) sets.push_back({i, i + 1000});
  SetCollection c = SetCollection::FromVectors(sets);
  SetCollection sample = c.Sample(10, 99);
  EXPECT_EQ(sample.size(), 10u);
  for (SetId id = 0; id < sample.size(); ++id) {
    EXPECT_EQ(sample.set_size(id), 2u);
  }
}

TEST(SetCollectionTest, SampleLargerThanInputReturnsAll) {
  SetCollection c = SetCollection::FromVectors({{1}, {2}});
  EXPECT_EQ(c.Sample(10, 1).size(), 2u);
}

TEST(SetCollectionTest, SampleDeterministicPerSeed) {
  std::vector<std::vector<ElementId>> sets;
  for (ElementId i = 0; i < 50; ++i) sets.push_back({i});
  SetCollection c = SetCollection::FromVectors(sets);
  SetCollection a = c.Sample(5, 7);
  SetCollection b = c.Sample(5, 7);
  ASSERT_EQ(a.size(), b.size());
  for (SetId id = 0; id < a.size(); ++id) {
    EXPECT_EQ(a.set(id)[0], b.set(id)[0]);
  }
}

TEST(AddBagTest, MultiplicityPreservedConsistently) {
  SetCollectionBuilder builder;
  std::vector<ElementId> bag1 = {7, 7, 7, 9};
  std::vector<ElementId> bag2 = {7, 7, 9, 9};
  builder.AddBag(bag1);
  builder.AddBag(bag2);
  SetCollection c = builder.Build();
  EXPECT_EQ(c.set_size(0), 4u);
  EXPECT_EQ(c.set_size(1), 4u);
  // Shared: two 7-occurrences + one 9-occurrence = 3; bag symmetric
  // difference = (1x7) + (1x9) = 2.
  EXPECT_EQ(SortedIntersectionSize(c.set(0), c.set(1)), 3u);
  EXPECT_EQ(SparseHammingDistance(c.set(0), c.set(1)), 2u);
}

TEST(AddBagTest, IdenticalBagsIdenticalSets) {
  SetCollectionBuilder builder;
  std::vector<ElementId> bag = {1, 1, 2, 3, 3, 3};
  builder.AddBag(bag);
  builder.AddBag(bag);
  SetCollection c = builder.Build();
  EXPECT_EQ(SparseHammingDistance(c.set(0), c.set(1)), 0u);
}

TEST(AddBagTest, RepeatsEncodeAsExplicitHashCombine) {
  // The j-th copy of e (j from 0, in any order) becomes
  // HashCombine(Mix64(e), j) folded to 32 bits.
  auto encode = [](ElementId e, uint32_t j) {
    uint64_t h = HashCombine(Mix64(e), j);
    return static_cast<ElementId>(h ^ (h >> 32));
  };
  std::vector<ElementId> bag = {5, 0, 5, 9, 5, 0, 4294967295u};
  std::vector<ElementId> expected = {encode(5, 0), encode(5, 1),
                                     encode(5, 2), encode(0, 0),
                                     encode(0, 1), encode(9, 0),
                                     encode(4294967295u, 0)};
  std::sort(expected.begin(), expected.end());
  expected.erase(std::unique(expected.begin(), expected.end()),
                 expected.end());

  SetCollectionBuilder builder;
  builder.AddBag(bag);
  builder.AddBag({});
  builder.AddBag(std::vector<ElementId>{9, 0, 5, 5, 0, 4294967295u, 5});
  SetCollection c = builder.Build();
  ASSERT_EQ(c.size(), 3u);
  EXPECT_TRUE(std::equal(c.set(0).begin(), c.set(0).end(), expected.begin(),
                         expected.end()));
  EXPECT_EQ(c.set_size(1), 0u);
  EXPECT_TRUE(std::equal(c.set(2).begin(), c.set(2).end(), expected.begin(),
                         expected.end()));
}

}  // namespace
}  // namespace ssjoin
