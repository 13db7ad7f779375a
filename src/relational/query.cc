#include "relational/query.h"

namespace ssjoin::relational {

Query Query::From(Table table) { return Query(std::move(table)); }

Query Query::Join(const Table& right,
                  const std::vector<std::string>& left_keys,
                  const std::vector<std::string>& right_keys,
                  const std::string& left_prefix,
                  const std::string& right_prefix,
                  const std::function<bool(const Row&)>& residual) && {
  if (!state_.ok()) return Query(std::move(state_));
  return Query(HashJoin(*state_, right, left_keys, right_keys, left_prefix,
                        right_prefix, residual));
}

Query Query::SelectDistinct(const std::vector<std::string>& columns) && {
  if (!state_.ok()) return Query(std::move(state_));
  return Query(Distinct(*state_, columns));
}

Query Query::GroupByCount(const std::vector<std::string>& group_columns,
                          const std::string& count_name) && {
  if (!state_.ok()) return Query(std::move(state_));
  return Query(
      relational::GroupByCount(*state_, group_columns, count_name));
}

Result<Table> Query::Run() && { return std::move(state_); }

}  // namespace ssjoin::relational
