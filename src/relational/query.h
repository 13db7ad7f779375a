// Fluent query builder over the relational operators.
//
// Composes the physical operators into readable pipelines with automatic
// Status short-circuiting — the shape the paper's Figure 11 / Figure 17
// queries take in sql_ssjoin.cc:
//
//   auto cand = Query::From(signature)
//                   .Join(signature, {"sign"}, {"sign"}, "s1.", "s2.",
//                         id1_less_than_id2)
//                   .SelectDistinct({"s1.id", "s2.id"})
//                   .Run();
//
// Execution is eager (each step materializes, like the paper's
// intermediate tables); a failed step poisons the rest of the chain.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "relational/operators.h"
#include "relational/table.h"
#include "util/status.h"

namespace ssjoin::relational {

class Query {
 public:
  /// Starts a pipeline from a materialized table (copied in; use
  /// std::move for large inputs).
  static Query From(Table table);

  Query Join(const Table& right, const std::vector<std::string>& left_keys,
             const std::vector<std::string>& right_keys,
             const std::string& left_prefix = "l.",
             const std::string& right_prefix = "r.",
             const std::function<bool(const Row&)>& residual = nullptr) &&;

  Query SelectDistinct(const std::vector<std::string>& columns) &&;

  Query GroupByCount(const std::vector<std::string>& group_columns,
                     const std::string& count_name = "count") &&;

  /// Finishes the pipeline.
  Result<Table> Run() &&;

 private:
  explicit Query(Result<Table> state) : state_(std::move(state)) {}

  Result<Table> state_;
};

}  // namespace ssjoin::relational
