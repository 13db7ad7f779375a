// Physical operators of the mini relational engine.
//
// Exactly the operators the paper's query plans use (Figures 10/11 and
// 16/17): equi hash-join, GROUP BY with COUNT(*) and DISTINCT projection.
// The clustered index those plans scan lives in relational/index.h. All
// operators are blocking (materialize their output), which matches how the
// intermediate tables (CandPair, CandPairIntersect) appear in the paper's
// implementation.

#pragma once

#include <functional>
#include <vector>

#include "relational/table.h"
#include "util/status.h"

namespace ssjoin::relational {

/// Hash equi-join of `left` and `right` on pairwise-equal key columns.
/// Output schema = Concat(left, right) with the given prefixes. An
/// optional `residual` predicate is applied to each joined row before
/// emission (e.g. the "S1.id < S2.id" condition of the CandPair query).
Result<Table> HashJoin(
    const Table& left, const Table& right,
    const std::vector<std::string>& left_keys,
    const std::vector<std::string>& right_keys,
    const std::string& left_prefix = "l.",
    const std::string& right_prefix = "r.",
    const std::function<bool(const Row&)>& residual = nullptr);

/// GROUP BY `group_columns` with COUNT(*); output schema is the group
/// columns followed by an int64 column named `count_name`.
Result<Table> GroupByCount(const Table& input,
                           const std::vector<std::string>& group_columns,
                           const std::string& count_name = "count");

/// SELECT DISTINCT `columns`.
Result<Table> Distinct(const Table& input,
                       const std::vector<std::string>& columns);

}  // namespace ssjoin::relational
