#include "relational/query.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace ssjoin::relational {
namespace {

// Rows go in through a loop over plain values: built from literal Value
// rows, the inlined fixture trips a gcc 12 -Wfree-nonheap-object false
// positive under the release preset's -Werror.
Table Orders() {
  Table t(Schema{{"customer", ValueType::kInt64},
                 {"amount", ValueType::kInt64}});
  const std::pair<int64_t, int64_t> rows[] = {
      {1, 10}, {1, 30}, {2, 20}, {2, 5}, {3, 7}};
  for (auto [customer, amount] : rows) {
    t.AppendUnchecked({Value(customer), Value(amount)});
  }
  return t;
}

Table Customers() {
  Table t(Schema{{"id", ValueType::kInt64},
                 {"name", ValueType::kString}});
  const std::pair<int64_t, const char*> rows[] = {
      {1, "ann"}, {2, "bob"}, {3, "cal"}};
  for (auto [id, name] : rows) {
    t.AppendUnchecked({Value(id), Value(std::string(name))});
  }
  return t;
}

TEST(QueryTest, FullPipeline) {
  // Orders per customer: join orders with customers, then count per name.
  auto result = Query::From(Orders())
                    .Join(Customers(), {"customer"}, {"id"}, "o.", "c.")
                    .GroupByCount({"c.name"}, "n")
                    .Run();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->schema().IndexOf("n"), 1);
  for (size_t i = 0; i < result->num_rows(); ++i) {
    const Row& row = result->row(i);
    EXPECT_EQ(GetInt64(row, 1), GetString(row, 0) == "cal" ? 1 : 2);
  }
}

TEST(QueryTest, ErrorPoisonsChain) {
  auto result = Query::From(Orders())
                    .SelectDistinct({"missing_column"})
                    // Neither step may crash on the poisoned state.
                    .Join(Customers(), {"customer"}, {"id"})
                    .GroupByCount({"amount"})
                    .Run();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(QueryTest, SelectDistinct) {
  auto result =
      Query::From(Orders()).SelectDistinct({"customer"}).Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3u);
}

}  // namespace
}  // namespace ssjoin::relational
