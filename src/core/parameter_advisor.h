// Optimal-parameter selection (paper Sections 3.2, 4.3, 8; Table 1).
//
// PartEnum trades signatures-per-set against filtering effectiveness via
// (n1, n2); no single setting is good for all input sizes — the paper's
// near-linear scaling comes precisely from re-tuning as the input grows
// (Section 8, Table 1). The paper tunes by estimating the Section 3.2
// intermediate-result size
//     F2 = sum |Sign(r)| + sum |Sign(s)| + sum |Sign(r) ∩ Sign(s)|
// for candidate settings, noting that (a) F2 closely tracks wall time and
// (b) for self-joins it is within a factor 2 of the F2 frequency moment of
// the signature multiset, estimable from a sample (via AMS [1]).
//
// The advisor does exactly that: for each candidate setting it generates
// signatures for a sample of n sets, computes the sample's signature count
// S and collision count C (exactly, or via the AMS sketch), and
// extrapolates to the full input of N sets as
//     F2_est = 2 S (N/n) + 2 C (N/n)^2
// (signature terms scale linearly, pairwise collisions quadratically).
// The argmin over settings is the chosen configuration.

#pragma once

#include <cstdint>
#include <vector>

#include "baselines/lsh.h"
#include "core/execution_guard.h"
#include "core/partenum.h"
#include "core/partenum_jaccard.h"
#include "core/ssjoin.h"
#include "data/collection.h"
#include "util/status.h"

namespace ssjoin::obs {
struct AdvisorTrace;
}  // namespace ssjoin::obs

namespace ssjoin {

struct AdvisorOptions {
  /// Sets sampled for estimation (the whole input if smaller).
  size_t sample_size = 2000;
  /// Candidate settings whose signatures/set exceed this are skipped.
  uint64_t max_signatures_per_set = 4096;
  /// Estimate collision counts with the AMS sketch instead of exactly.
  /// Exact is the default: on a 2000-set sample it is cheap and
  /// deterministic; the sketch demonstrates the paper's limited-memory
  /// route and is exercised by tests/benches.
  bool use_ams_sketch = false;
  uint64_t seed = 0x9E3779B9;
  /// Optional EXPLAIN search-trace sink (obs/explain.h): every Evaluate*
  /// call appends one AdvisorCandidate per setting it scored, and the
  /// Choose* wrappers mark the winning row. Not owned; nullptr = no
  /// trace (the null-sink contract: one pointer compare, zero cost).
  obs::AdvisorTrace* trace = nullptr;
};

/// One evaluated candidate setting.
struct PartEnumChoice {
  PartEnumParams params;
  double estimated_f2 = 0;
  uint64_t signatures_per_set = 0;
};

/// Evaluates all valid (n1, n2) for a hamming PartEnum with threshold `k`
/// against (a sample of) `input`, extrapolating to `target_input_size`
/// sets. Returns candidates sorted by estimated F2 (best first).
/// target_input_size = 0 means input.size().
std::vector<PartEnumChoice> EvaluatePartEnumParams(
    const SetCollection& input, uint32_t k, size_t target_input_size,
    const AdvisorOptions& options = {});

/// The best setting from EvaluatePartEnumParams.
Result<PartEnumChoice> ChoosePartEnumParams(
    const SetCollection& input, uint32_t k, size_t target_input_size = 0,
    const AdvisorOptions& options = {});

/// Estimated-F2 evaluation for LSH: for each g in [1, max_g], l is fixed
/// by the accuracy target (LshParams::ForAccuracy) and the F2 estimate is
/// computed as above. Returns candidates sorted by estimated F2.
struct LshChoice {
  LshParams params;
  double estimated_f2 = 0;
};

std::vector<LshChoice> EvaluateLshParams(const SetCollection& input,
                                         double gamma, double delta,
                                         uint32_t max_g,
                                         size_t target_input_size = 0,
                                         const AdvisorOptions& options = {});

Result<LshChoice> ChooseLshParams(const SetCollection& input, double gamma,
                                  double delta, uint32_t max_g = 8,
                                  size_t target_input_size = 0,
                                  const AdvisorOptions& options = {});

/// Estimates the full-input F2 of an arbitrary scheme from a sample, the
/// same estimate the Evaluate* searches rank settings by. Only tests call
/// it: it is the seam that checks the estimate against a reference.
double EstimateSchemeF2(const SetCollection& input,
                        const SignatureScheme& scheme,
                        size_t target_input_size,
                        const AdvisorOptions& options = {});

/// Outcome of PartEnumJaccardSelfJoinWithRetry.
struct GuardedPartEnumResult {
  /// The final run's result; `join.status` is non-OK when the run (or the
  /// retry) was stopped by the guard.
  JoinResult join;
  /// True when the first run tripped the candidate-explosion breaker and
  /// a retry with advisor-tuned parameters was executed.
  bool retried = false;
  /// The (n1, n2) shape the retry used (valid only when `retried`).
  PartEnumParams retry_params;
};

/// Guard + advisor closing the loop (the paper's parameter-sensitivity
/// story turned into a recovery policy): runs a PartEnum jaccard
/// self-join under `guard`; if — and only if — the guard trips its
/// candidate-explosion breaker, re-tunes (n1, n2) with
/// ChoosePartEnumParams on a sample and retries exactly once with the
/// safer shape. The guard is Reset() for the retry, so its memory
/// accounting restarts but its deadline stays anchored at the original
/// start — a retry does not earn extra wall-clock. Any other trip
/// (cancellation, deadline, memory), a failed re-tune, or a second
/// explosion is returned as-is in `join.status`. Returns a non-OK
/// Result only for invalid inputs (scheme construction failure).
Result<GuardedPartEnumResult> PartEnumJaccardSelfJoinWithRetry(
    const SetCollection& input, const PartEnumJaccardParams& params,
    ExecutionGuard& guard, const JoinOptions& options = {},
    const AdvisorOptions& advisor = {});

}  // namespace ssjoin
