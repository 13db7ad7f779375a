// Edit-distance string similarity join (paper Section 8.2).
//
// If EditDistance(s1, s2) <= k, every edit operation perturbs at most q
// q-grams on each side, so the q-gram *bags* of s1 and s2 have hamming
// distance <= 2qk. A hamming SSJoin over the q-gram bags with threshold
// 2qk is therefore a complete filter. Both entry points run that SSJoin
// through Join() — the same stage sequence, bitmap pre-filter, spill
// path and per-stage ledger as every other join — and then check the
// exact banded edit distance over its pairs ("in application code",
// Figure 16). Because the hamming check is complete, Join()'s pairs are
// an exact superset of the edit-distance matches.
//
// Accounting: `results` counts the edit-distance matches, and every
// candidate that is not one — rejected by the hamming check or by the
// edit check — counts as a false positive. The wrapper's own two steps
// keep the same stage ledger as Join()'s stages (obs::Stage), under the
// tags `qgram` (q-gram extraction and scheme construction) and
// `edit_check` (the edit-distance check of Join()'s pairs). The JoinStats
// seconds are Join()'s stage times plus those two: qgram adds to
// siggen_seconds, edit_check to postfilter_seconds.
//
// Note on the bound: the paper states the bound as "<= nk", but its own
// Example 1 (washington/woshington: one substitution, 3-gram hamming
// distance 4 > 3) shows nk is not a complete bound for the symmetric
// difference; we use the provably complete 2qk. With q = 1 — the optimal
// choice for PartEnum per Section 8.2 — this is tight (one substitution
// changes one character out and one in).
//
// Choice of q: PartEnum is insensitive to small element domains, so q = 1
// performs best; prefix filter draws its signatures from the element
// domain and needs q = 4..6 (Section 8.2). Both are supported here.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/partenum.h"
#include "core/ssjoin.h"
#include "util/status.h"

namespace ssjoin {

enum class StringJoinAlgorithm { kPartEnum, kPrefixFilter };

struct StringJoinOptions {
  /// Edit-distance threshold k (pairs with distance <= k are output).
  uint32_t edit_threshold = 1;
  /// Gram length q. 1 is PartEnum's sweet spot; prefix filter wants 4..6.
  uint32_t q = 1;
  StringJoinAlgorithm algorithm = StringJoinAlgorithm::kPartEnum;
  /// Optional PartEnum (n1, n2) override; k is derived from the join.
  std::optional<PartEnumParams> partenum_shape;
  uint64_t seed = 0x9E3779B9;
  /// Optional observability sinks (same contract as JoinOptions::tracer /
  /// ::metrics — borrowed, nullptr = off).
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// The derived hamming threshold over q-gram bags for edit threshold k,
/// in 64 bits so it cannot wrap. The joins refuse a bound above
/// UINT32_MAX with InvalidArgument.
uint64_t QgramHammingThreshold(uint32_t q, uint32_t k);

/// Self-join: all pairs (i, j), i < j, with EditDistance <= k. Exact.
Result<JoinResult> StringSimilaritySelfJoin(
    const std::vector<std::string>& strings,
    const StringJoinOptions& options);

/// Binary join: all (i, j) in R x S with EditDistance(r_i, s_j) <= k.
/// Exact. The typical data-cleaning shape: R = incoming dirty records,
/// S = the curated master table.
Result<JoinResult> StringSimilarityJoin(
    const std::vector<std::string>& r_strings,
    const std::vector<std::string>& s_strings,
    const StringJoinOptions& options);

}  // namespace ssjoin
