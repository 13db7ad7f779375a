#include "relational/operators.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace ssjoin::relational {
namespace {

Table MakeTable(const std::string& a, const std::string& b,
                std::vector<std::pair<int64_t, int64_t>> rows) {
  Table t(Schema{{a, ValueType::kInt64}, {b, ValueType::kInt64}});
  for (auto [x, y] : rows) t.AppendUnchecked({Value(x), Value(y)});
  return t;
}

TEST(HashJoinTest, BasicEquiJoin) {
  Table left = MakeTable("id", "v", {{1, 10}, {2, 20}, {3, 30}});
  Table right = MakeTable("id", "w", {{2, 200}, {3, 300}, {4, 400}});
  auto joined = HashJoin(left, right, {"id"}, {"id"});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 2u);
  EXPECT_EQ(joined->schema().IndexOf("l.id"), 0);
  EXPECT_EQ(joined->schema().IndexOf("r.w"), 3);
}

TEST(HashJoinTest, DuplicateKeysProduceCrossProduct) {
  Table left = MakeTable("k", "v", {{1, 1}, {1, 2}});
  Table right = MakeTable("k", "w", {{1, 3}, {1, 4}, {1, 5}});
  auto joined = HashJoin(left, right, {"k"}, {"k"});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 6u);
}

TEST(HashJoinTest, MultiColumnKeys) {
  Table left = MakeTable("a", "b", {{1, 2}, {1, 3}, {2, 2}});
  Table right = MakeTable("a", "b", {{1, 2}, {2, 2}, {2, 3}});
  auto joined = HashJoin(left, right, {"a", "b"}, {"a", "b"});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 2u);
}

TEST(HashJoinTest, ResidualPredicate) {
  Table t = MakeTable("id", "sign", {{1, 9}, {2, 9}, {3, 9}});
  auto joined = HashJoin(t, t, {"sign"}, {"sign"}, "s1.", "s2.",
                         [](const Row& row) {
                           return GetInt64(row, 0) < GetInt64(row, 2);
                         });
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 3u);  // (1,2), (1,3), (2,3)
}

TEST(HashJoinTest, UnknownColumnFails) {
  Table t = MakeTable("a", "b", {{1, 2}});
  EXPECT_FALSE(HashJoin(t, t, {"nope"}, {"a"}).ok());
  EXPECT_FALSE(HashJoin(t, t, {}, {}).ok());
}

TEST(GroupByCountTest, CountsGroups) {
  Table t = MakeTable("g", "x", {{1, 0}, {1, 0}, {2, 0}, {1, 0}, {3, 0}});
  auto grouped = GroupByCount(t, {"g"}, "n");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->num_rows(), 3u);
  // Find group 1.
  for (size_t i = 0; i < grouped->num_rows(); ++i) {
    int64_t g = GetInt64(grouped->row(i), 0);
    int64_t n = GetInt64(grouped->row(i), 1);
    if (g == 1) {
      EXPECT_EQ(n, 3);
    } else {
      EXPECT_EQ(n, 1);
    }
  }
}

TEST(GroupByCountTest, MultiColumnGroups) {
  Table t = MakeTable("a", "b", {{1, 1}, {1, 1}, {1, 2}, {2, 1}});
  auto grouped = GroupByCount(t, {"a", "b"});
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->num_rows(), 3u);
}

TEST(DistinctTest, RemovesDuplicates) {
  Table t = MakeTable("a", "b", {{1, 1}, {1, 1}, {1, 2}, {1, 1}});
  auto distinct = Distinct(t, {"a", "b"});
  ASSERT_TRUE(distinct.ok());
  EXPECT_EQ(distinct->num_rows(), 2u);
  auto one_col = Distinct(t, {"a"});
  ASSERT_TRUE(one_col.ok());
  EXPECT_EQ(one_col->num_rows(), 1u);
}

TEST(OperatorsTest, StringKeysJoin) {
  Table left(Schema{{"name", ValueType::kString},
                    {"v", ValueType::kInt64}});
  left.AppendUnchecked({Value(std::string("ca")), Value(int64_t{1})});
  left.AppendUnchecked({Value(std::string("wa")), Value(int64_t{2})});
  Table right(Schema{{"name", ValueType::kString},
                     {"w", ValueType::kInt64}});
  right.AppendUnchecked({Value(std::string("ca")), Value(int64_t{3})});
  auto joined = HashJoin(left, right, {"name"}, {"name"});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 1u);
  EXPECT_EQ(GetString(joined->row(0), 0), "ca");
}

}  // namespace
}  // namespace ssjoin::relational
