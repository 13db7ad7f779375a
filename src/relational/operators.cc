#include "relational/operators.h"

#include <unordered_map>
#include <unordered_set>

#include "util/check.h"

namespace ssjoin::relational {

namespace {

// Resolves column names to indices; fails on unknown names.
Result<std::vector<int>> ResolveColumns(
    const Schema& schema, const std::vector<std::string>& names) {
  std::vector<int> out;
  out.reserve(names.size());
  for (const std::string& name : names) {
    int idx = schema.IndexOf(name);
    if (idx < 0) {
      return Status::NotFound("column '" + name + "' not in schema " +
                              schema.ToString());
    }
    out.push_back(idx);
  }
  return out;
}

// Hash of a key (subset of row cells).
size_t HashKey(const Row& row, const std::vector<int>& columns) {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (int c : columns) {
    SSJOIN_DCHECK_BOUNDS(c, row.size());
    h = h * 1099511628211ULL ^ HashValue(row[c]);
  }
  return h;
}

bool KeysEqual(const Row& a, const std::vector<int>& a_cols, const Row& b,
               const std::vector<int>& b_cols) {
  SSJOIN_DCHECK(a_cols.size() == b_cols.size(),
                "key arity mismatch: {} vs {}", a_cols.size(),
                b_cols.size());
  for (size_t i = 0; i < a_cols.size(); ++i) {
    if (!(a[a_cols[i]] == b[b_cols[i]])) return false;
  }
  return true;
}

}  // namespace

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& left_keys,
                       const std::vector<std::string>& right_keys,
                       const std::string& left_prefix,
                       const std::string& right_prefix,
                       const std::function<bool(const Row&)>& residual) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::InvalidArgument("join keys must be non-empty and paired");
  }
  SSJOIN_ASSIGN_OR_RETURN(std::vector<int> lcols,
                          ResolveColumns(left.schema(), left_keys));
  SSJOIN_ASSIGN_OR_RETURN(std::vector<int> rcols,
                          ResolveColumns(right.schema(), right_keys));

  Table output(
      Schema::Concat(left.schema(), right.schema(), left_prefix,
                     right_prefix));

  // Build on the smaller side for memory; probe with the other.
  const bool build_left = left.num_rows() <= right.num_rows();
  const Table& build = build_left ? left : right;
  const Table& probe = build_left ? right : left;
  const std::vector<int>& bcols = build_left ? lcols : rcols;
  const std::vector<int>& pcols = build_left ? rcols : lcols;

  std::unordered_multimap<size_t, size_t> table;  // key hash -> build row
  table.reserve(build.num_rows());
  for (size_t i = 0; i < build.num_rows(); ++i) {
    table.emplace(HashKey(build.row(i), bcols), i);
  }
  for (size_t j = 0; j < probe.num_rows(); ++j) {
    const Row& prow = probe.row(j);
    auto [lo, hi] = table.equal_range(HashKey(prow, pcols));
    for (auto it = lo; it != hi; ++it) {
      const Row& brow = build.row(it->second);
      if (!KeysEqual(brow, bcols, prow, pcols)) continue;
      const Row& lrow = build_left ? brow : prow;
      const Row& rrow = build_left ? prow : brow;
      Row joined;
      joined.reserve(lrow.size() + rrow.size());
      joined.insert(joined.end(), lrow.begin(), lrow.end());
      joined.insert(joined.end(), rrow.begin(), rrow.end());
      SSJOIN_DCHECK(joined.size() == output.schema().num_columns(),
                    "joined row arity {} != concatenated schema {}",
                    joined.size(), output.schema().num_columns());
      if (residual && !residual(joined)) continue;
      output.AppendUnchecked(std::move(joined));
    }
  }
  return output;
}

Result<Table> GroupByCount(const Table& input,
                           const std::vector<std::string>& group_columns,
                           const std::string& count_name) {
  SSJOIN_ASSIGN_OR_RETURN(std::vector<int> gcols,
                          ResolveColumns(input.schema(), group_columns));
  std::vector<Column> out_columns;
  for (int c : gcols) out_columns.push_back(input.schema().column(c));
  out_columns.push_back(Column{count_name, ValueType::kInt64});
  Table output((Schema(out_columns)));

  // Group rows via hash map from key hash to candidate output slots
  // (chained to handle hash collisions exactly).
  std::unordered_multimap<size_t, size_t> groups;  // hash -> output row idx
  for (size_t i = 0; i < input.num_rows(); ++i) {
    const Row& row = input.row(i);
    size_t h = HashKey(row, gcols);
    bool found = false;
    auto [lo, hi] = groups.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      Row& orow = const_cast<Row&>(output.row(it->second));
      bool equal = true;
      for (size_t g = 0; g < gcols.size(); ++g) {
        if (!(orow[g] == row[gcols[g]])) {
          equal = false;
          break;
        }
      }
      if (equal) {
        orow.back() = std::get<int64_t>(orow.back()) + 1;
        found = true;
        break;
      }
    }
    if (!found) {
      Row orow;
      orow.reserve(gcols.size() + 1);
      for (int c : gcols) orow.push_back(row[c]);
      // In place: moving a temporary Value in makes gcc 12 warn that the
      // variant's string member may be read uninitialized.
      orow.emplace_back(int64_t{1});
      output.AppendUnchecked(std::move(orow));
      groups.emplace(h, output.num_rows() - 1);
    }
  }
  return output;
}

Result<Table> Distinct(const Table& input,
                       const std::vector<std::string>& columns) {
  SSJOIN_ASSIGN_OR_RETURN(std::vector<int> cols,
                          ResolveColumns(input.schema(), columns));
  std::vector<Column> out_columns;
  for (int c : cols) out_columns.push_back(input.schema().column(c));
  Table output((Schema(out_columns)));

  std::unordered_multimap<size_t, size_t> seen;
  for (size_t i = 0; i < input.num_rows(); ++i) {
    const Row& row = input.row(i);
    size_t h = HashKey(row, cols);
    bool duplicate = false;
    auto [lo, hi] = seen.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      const Row& orow = output.row(it->second);
      bool equal = true;
      for (size_t c = 0; c < cols.size(); ++c) {
        if (!(orow[c] == row[cols[c]])) {
          equal = false;
          break;
        }
      }
      if (equal) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      Row orow;
      orow.reserve(cols.size());
      for (int c : cols) orow.push_back(row[c]);
      output.AppendUnchecked(std::move(orow));
      seen.emplace(h, output.num_rows() - 1);
    }
  }
  return output;
}

}  // namespace ssjoin::relational
