// The generic signature-based SSJoin driver (paper Figure 2).
//
// All algorithms in this library — PartEnum, WtEnum, prefix filter, the
// identity scheme, LSH — share this driver; they differ only in the
// plugged-in SignatureScheme. The driver:
//   1/2. generates signatures for every input set        (phase SigGen)
//   3.   finds all pairs with overlapping signature sets (phase CandPair)
//   4.   post-filters candidates with the exact predicate (phase PostFilter)
// and records the paper's evaluation measures (Section 3.2): per-phase
// time, signature counts, candidate counts, false positives, and the
// intermediate-result size
//   sum_r |Sign(r)| + sum_s |Sign(s)| + sum_(r,s) |Sign(r) ∩ Sign(s)|.
//
// All three phases are shard-parallel (paper Section 4's cost model
// treats them as independent); JoinOptions::num_threads selects the
// parallelism and the output is byte-identical for every thread count.
//
// Entry point: build a JoinRequest and call Join(). The request names
// the inputs, the scheme/predicate pair, the ExecutionMode (self or
// binary) and the JoinOptions — including
// the observability sinks (obs::Tracer / obs::MetricsRegistry) every
// execution path publishes into.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/execution_guard.h"
#include "core/predicate.h"
#include "core/signature_scheme.h"
#include "core/types.h"
#include "data/collection.h"
#include "util/status.h"

namespace ssjoin::obs {
class Tracer;
class MetricsRegistry;
struct ExplainReport;
class Logger;
}  // namespace ssjoin::obs

namespace ssjoin {

/// When the driver trades memory for disk (DESIGN.md Section 12).
enum class SpillPolicy {
  /// Resolve from the SSJOIN_SPILL environment variable ("off", "auto",
  /// "force"); unset or unrecognized means kDisabled. The env hook lets
  /// CI force the out-of-core path under the whole test suite without
  /// touching call sites.
  kDefault = 0,
  /// Never spill: memory pressure trips the guard (pre-spill behavior).
  kDisabled,
  /// Degrade instead of tripping: when the signature table would exceed
  /// the guard's memory budget, abandon the in-memory table and rerun
  /// candidate generation out-of-core. Requires a guard with a memory
  /// budget to ever engage.
  kAuto,
  /// Always run candidate generation out-of-core, regardless of memory
  /// pressure. The differential-testing mode: forced-spill output is
  /// byte-identical to the in-memory join.
  kForced,
};

/// Out-of-core execution knobs (core/spill, DESIGN.md Section 12).
struct SpillOptions {
  SpillPolicy policy = SpillPolicy::kDefault;
  /// Base directory for the run's spill files; a uniquely-named
  /// subdirectory is created (and always removed) under it. Empty =
  /// the system temp directory.
  std::string dir;
  /// Number of on-disk partitions K (0 = default 8). Postings are
  /// routed by signature hash, so every signature group lands in one
  /// partition and per-partition results merge exactly.
  uint32_t partitions = 0;
  /// I/O-failure retries: each retry halves the partition count (fewer,
  /// larger files — the failure mode is usually per-file overhead or
  /// file-count limits) before the join surrenders with kIOError.
  uint32_t max_retries = 2;
};

/// Knobs of the generic driver.
struct JoinOptions {
  /// Width of the XOR bitmap pre-filter (core/kernels/bitmap_filter.h)
  /// applied between candidate generation and exact verification: 64,
  /// 128 (default) or 256 bits per set, 0 disables the filter. The
  /// filter is exact — it never rejects a true match — so the join
  /// output and all legacy stats are byte-identical for every setting;
  /// only bitmap_filter_checked / bitmap_filter_pruned and wall-clock
  /// change. Invalid widths make Join() return InvalidArgument.
  uint32_t bitmap_bits = 128;
  /// Worker threads for the drivers: 1 (default) runs the serial
  /// reference path on the calling thread, 0 means one thread per
  /// hardware core, any other value is used literally. Every thread
  /// count produces byte-identical pairs and stats — parallel execution
  /// uses deterministic static sharding (DESIGN.md Section 6), never
  /// work stealing.
  size_t num_threads = 1;
  /// Optional execution guardrails (cancellation, deadline, memory
  /// budget, candidate-explosion breaker — DESIGN.md Section 7). Not
  /// owned; must outlive the driver call. When the guard trips, the
  /// driver stops at the next barrier and returns a JoinResult whose
  /// `status` carries the trip (pairs empty, stats partial). A guard
  /// that never trips leaves the output byte-identical to an unguarded
  /// run. nullptr = no guardrails (zero overhead).
  ExecutionGuard* guard = nullptr;
  /// Optional span sink (DESIGN.md Section 8). When set, the driver
  /// records a join → operator span skeleton (one span per plan
  /// operator, named by its tag) plus runtime shard/chunk/block detail
  /// into it. Not owned; must outlive the call. nullptr = no
  /// tracing (the null-sink default, within measurement noise of the
  /// pre-observability driver).
  obs::Tracer* tracer = nullptr;
  /// Optional metrics sink: signature/candidate/result counters, dedup
  /// ratio, per-shard and verify-chunk histograms, guard trip causes.
  /// Not owned; nullptr = no metrics.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional EXPLAIN accumulator (obs/explain.h, DESIGN.md Section 9).
  /// When set, Join() records the execution mode and input sizes and
  /// every exit path adds the run's actuals (signatures, collisions,
  /// candidates, results, F2) to the report's drift table — pair them
  /// with advisor predictions via AttachAdvisorTrace() for
  /// estimate-vs-actual accounting. Accumulates across joins. Not
  /// owned; not thread-safe (one report per join sequence); nullptr =
  /// no explain (zero cost, same null-sink contract as the sinks above).
  obs::ExplainReport* explain = nullptr;
  /// Optional structured log sink (obs/log.h, DESIGN.md Section 14).
  /// When set, the drivers emit join_start/join_finish/join_abort and
  /// spill lifecycle events through it. Not owned; thread-safe; nullptr
  /// = no logging (one pointer compare per event — null-sink contract).
  obs::Logger* log = nullptr;
  /// Graceful degradation under memory pressure: spill candidate
  /// generation to disk instead of tripping the guard (DESIGN.md
  /// Section 12). The spilled join produces byte-identical pairs and
  /// exactly-equal legacy stats at any thread count; only the spill_*
  /// stats and wall-clock change.
  SpillOptions spill;
};

/// Upper bounds enforced by ValidateJoinOptions(). Generous by design:
/// they exist to reject nonsense (a million threads, a billion spill
/// files) before it allocates, not to tune anything.
inline constexpr size_t kMaxJoinThreads = 4096;
inline constexpr uint32_t kMaxSpillPartitions = 4096;
inline constexpr uint32_t kMaxSpillRetries = 16;

/// Validates the option combinations every execution path relies on —
/// bitmap width, thread-count and spill caps — in one place. Join()
/// calls this through JoinRequest::Validate(); call it directly to
/// pre-flight options built from configuration or user input.
Status ValidateJoinOptions(const JoinOptions& options);

/// Evaluation measures of one join execution (paper Section 3.2).
struct JoinStats {
  // Phase wall-clock seconds (the stacked bars of Figures 12/18/19).
  // Join() derives them from its operator ledger: each plan operator's
  // self-time (Operator::Pull, pipeline.<op>.ns) is added to one field —
  //   siggen_seconds      siggen
  //   candpair_seconds    candgen, spill_partition
  //   postfilter_seconds  bitmap_filter, verify
  // and dedup_emit feeds none (emission is not a Figure 2 step). The
  // spilled source does SigGen and CandPair in one operator, so a
  // spilled plan reports siggen_seconds == 0 and all source time as
  // candpair_seconds; pipeline.<op>.ns and EXPLAIN keep the
  // per-operator split. The DBMS driver (relational/sql_ssjoin.h), which
  // is not an operator chain, times the three steps directly; the string
  // join (core/string_join.h) adds its two wrapper steps — q-gram
  // extraction and the edit-distance check — to the fields of its inner
  // Join().
  double siggen_seconds = 0;
  double candpair_seconds = 0;
  double postfilter_seconds = 0;
  double TotalSeconds() const {
    return siggen_seconds + candpair_seconds + postfilter_seconds;
  }

  /// sum_r |Sign(r)| over the left input.
  uint64_t signatures_r = 0;
  /// sum_s |Sign(s)| over the right input (== signatures_r for self-join).
  uint64_t signatures_s = 0;
  /// sum over candidate pairs of |Sign(r) ∩ Sign(s)| — the number of
  /// signature-level collisions (join hits at step 3).
  uint64_t signature_collisions = 0;
  /// The Section 3.2 intermediate-result size:
  /// signatures_r + signatures_s + signature_collisions.
  uint64_t F2() const {
    return signatures_r + signatures_s + signature_collisions;
  }

  /// Distinct candidate pairs produced by step 3.
  uint64_t candidates = 0;
  /// Candidates that satisfied the predicate (the output size).
  uint64_t results = 0;
  /// Candidates that failed the predicate (filtering-effectiveness
  /// measure 2 of Section 3.2).
  uint64_t false_positives = 0;

  /// Candidates examined by the bitmap pre-filter (== candidates when
  /// the filter is on, 0 when bitmap_bits == 0).
  uint64_t bitmap_filter_checked = 0;
  /// Candidates the bitmap filter proved non-matching — these skip the
  /// exact Predicate::Evaluate but still count into false_positives, so
  /// every legacy stat is identical with the filter on or off.
  uint64_t bitmap_filter_pruned = 0;

  /// Out-of-core accounting (0 when the join ran in memory). All four
  /// are deterministic for a given input + spill configuration.
  /// Partition count of the (last, successful) spill attempt.
  uint64_t spill_partitions = 0;
  /// Bytes written to / read back from spill files, summed over all
  /// attempts including failed ones.
  uint64_t spill_bytes_written = 0;
  uint64_t spill_bytes_read = 0;
  /// Spill attempts that failed with an I/O error and were retried with
  /// half the partitions.
  uint64_t spill_retries = 0;

  std::string ToString() const;
};

/// Output of a join: the matching pairs plus the stats above.
struct JoinResult {
  std::vector<SetPair> pairs;
  JoinStats stats;
  /// OK unless JoinOptions::guard tripped (kCancelled /
  /// kDeadlineExceeded / kResourceExhausted) or the spill layer ran out
  /// of I/O retries (kIOError). On a failure `pairs` is empty — a
  /// partial pair list would be silently wrong — while `stats` reports
  /// the accounting of the work that completed before the trip
  /// (completed phases, and completed verification chunks within
  /// PostFilter), which is exactly what an operator needs to re-budget.
  Status status;
};

/// How Join() executes the Figure-2 outline.
enum class ExecutionMode {
  /// Sorted self-join over one collection: materialize all signatures,
  /// shard by signature hash, verify the global candidate set. Output
  /// pairs have first < second. This is what all the paper's experiments
  /// run.
  kSelfJoin = 0,
  /// Sorted binary join between collections R and S; the same scheme
  /// instance generates signatures for both sides.
  kBinaryJoin = 1,
  /// Runs kSelfJoin; removed with the benchmark's `plan.pipelined_*`
  /// rows (ROADMAP item 5).
  kPipelinedSelfJoin = 2,
};

std::string_view ExecutionModeName(ExecutionMode mode);

/// One fully-specified join invocation — everything Join() needs.
/// Pointer fields are borrowed and must outlive the call.
struct JoinRequest {
  /// Left input (the only input for the self-join modes).
  const SetCollection* left = nullptr;
  /// Right input; required for kBinaryJoin, must be null (or equal to
  /// `left`) for the self-join modes.
  const SetCollection* right = nullptr;
  const SignatureScheme* scheme = nullptr;
  const Predicate* predicate = nullptr;
  ExecutionMode mode = ExecutionMode::kSelfJoin;
  /// Execution knobs, guardrails, and observability sinks.
  JoinOptions options;

  /// The exact validation Join() performs before dispatching, as a
  /// callable pre-flight: OK when Join() would execute this request,
  /// otherwise the same InvalidArgument status (same message) Join()
  /// would return. Checks run in a fixed order — left, scheme,
  /// predicate, ValidateJoinOptions(), then the mode/right shape.
  [[nodiscard]] Status Validate() const;
};

/// Builders for the common request shapes. They only fill the struct —
/// call Join() (or Validate()) on the result; invalid combinations are
/// reported there, not here.
JoinRequest SelfJoinRequest(const SetCollection& input,
                            const SignatureScheme& scheme,
                            const Predicate& predicate,
                            JoinOptions options = {});
JoinRequest BinaryJoinRequest(const SetCollection& r, const SetCollection& s,
                              const SignatureScheme& scheme,
                              const Predicate& predicate,
                              JoinOptions options = {});

/// The unified driver facade: validates `request` and runs it through
/// the one driver. Every join in the library funnels through here, so
/// guardrails and observability attach uniformly. An invalid request
/// (missing inputs, right side on a self-join, ...) returns a JoinResult
/// whose status is InvalidArgument and whose pairs/stats are empty.
JoinResult Join(const JoinRequest& request);

}  // namespace ssjoin
