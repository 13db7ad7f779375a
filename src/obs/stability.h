// Determinism taxonomy for observability data (DESIGN.md Section 8).
//
// The repo's parallel-execution contract promises byte-identical join
// output for every thread count. The observability layer extends that
// promise to telemetry: everything it exports in the deterministic
// formats (the JSONL trace/metrics files CI diffs) must also be
// byte-identical across thread counts and across repeated runs on the
// same input. Wall-clock readings and per-shard detail cannot satisfy
// that, so every span and metric carries a Stability class and the
// deterministic exporters emit only the kStable subset; the Chrome-trace
// and human-report exporters emit everything.

#pragma once

#include <string_view>

namespace ssjoin::obs {

enum class Stability {
  /// Identical for every thread count and every run on the same input:
  /// phase structure, signature/candidate/result totals, guard-trip
  /// causes from deterministic limits. Included in JSONL exports.
  kStable,
  /// Timing, per-shard/per-chunk breakdowns, thread-pool activity —
  /// anything that legitimately varies run to run. Excluded from the
  /// deterministic JSONL exports; visible in the Chrome trace and the
  /// human run report.
  kRuntime,
};

// Registered telemetry names.
//
// Every span name, span-attribute key, span-event name, metric name, and
// explain-quantity name emitted from src/ must be registered here — the
// `telemetry-registry` rule in tools/lint/ssjoin_lint.py extracts the
// string literals below and rejects any src/ emission call whose name
// literal is not among them. One vocabulary file keeps exporters, the
// explain layer, and regression tooling (scripts/bench_compare.py keys
// on these names) agreeing on what exists, and makes a rename a visible,
// single-file event instead of a silent drift between emitters.
//
// Emission call sites may keep using plain string literals (the lint
// matches by value, not by constant), but new code is encouraged to use
// these constants.
namespace names {

// Span names. Each operator of a Join() plan also opens one kStable
// span named by its tag (the kOp* constants below).
inline constexpr std::string_view kSpanJoin = "join";
inline constexpr std::string_view kSpanSigGen = "SigGen";
inline constexpr std::string_view kSpanCandPair = "CandPair";
inline constexpr std::string_view kSpanPostFilter = "PostFilter";
inline constexpr std::string_view kSpanShard = "shard";
inline constexpr std::string_view kSpanVerifyChunk = "verify_chunk";

// Span-attribute keys.
inline constexpr std::string_view kAttrMode = "mode";
inline constexpr std::string_view kAttrPlan = "plan";
inline constexpr std::string_view kAttrTrip = "trip";
inline constexpr std::string_view kAttrInputSets = "input_sets";
inline constexpr std::string_view kAttrInputSetsR = "input_sets_r";
inline constexpr std::string_view kAttrInputSetsS = "input_sets_s";
inline constexpr std::string_view kAttrSignaturesR = "signatures_r";
inline constexpr std::string_view kAttrSignaturesS = "signatures_s";
inline constexpr std::string_view kAttrSignatureCollisions =
    "signature_collisions";
inline constexpr std::string_view kAttrCandidates = "candidates";
inline constexpr std::string_view kAttrResults = "results";
inline constexpr std::string_view kAttrFalsePositives = "false_positives";
inline constexpr std::string_view kAttrBitmapFilterChecked =
    "bitmap_filter_checked";
inline constexpr std::string_view kAttrBitmapFilterPruned =
    "bitmap_filter_pruned";
inline constexpr std::string_view kAttrRows = "rows";
// An operator span's deterministic row totals (the same values as the
// pipeline.<op>.rows_in / rows_out counters).
inline constexpr std::string_view kAttrRowsIn = "rows_in";
inline constexpr std::string_view kAttrRowsOut = "rows_out";
// Out-of-core execution (core/spill, DESIGN.md Section 12). "spill"
// records how the spilled path was entered ("forced" / "auto"); the
// counters are functions of the input and spill configuration, so all
// are kStable.
inline constexpr std::string_view kAttrSpill = "spill";
inline constexpr std::string_view kAttrSpillPartitions = "spill_partitions";
inline constexpr std::string_view kAttrSpillRetries = "spill_retries";

// Span events.
inline constexpr std::string_view kEventGuardTrip = "guard_trip";

// Metric names.
inline constexpr std::string_view kJoinRuns = "join.runs";
inline constexpr std::string_view kJoinSignatures = "join.signatures";
inline constexpr std::string_view kJoinSignatureCollisions =
    "join.signature_collisions";
inline constexpr std::string_view kJoinCandidates = "join.candidates";
inline constexpr std::string_view kJoinResults = "join.results";
inline constexpr std::string_view kJoinFalsePositives =
    "join.false_positives";
inline constexpr std::string_view kJoinCandidateDedupRatio =
    "join.candidate_dedup_ratio";
// Bitmap pre-filter effectiveness (core/kernels/bitmap_filter.h):
// counters and the derived prune rate are all functions of JoinStats, so
// they are kStable.
inline constexpr std::string_view kJoinBitmapFilterChecked =
    "join.bitmap_filter_checked";
inline constexpr std::string_view kJoinBitmapFilterPruned =
    "join.bitmap_filter_pruned";
inline constexpr std::string_view kJoinBitmapPruneRate =
    "join.bitmap_prune_rate";
// IntersectSize dispatch counts (core/kernels/intersect.h): which kernel
// — scalar or galloping — verification chose per pair. Process-global
// counters that concurrent joins also move, hence kRuntime only.
inline constexpr std::string_view kJoinIntersectScalar =
    "join.intersect.scalar";
inline constexpr std::string_view kJoinIntersectGalloping =
    "join.intersect.galloping";
inline constexpr std::string_view kJoinSecondsTotal = "join.seconds.total";
inline constexpr std::string_view kJoinShardCandidates =
    "join.shard.candidates";
inline constexpr std::string_view kJoinShardMicros = "join.shard.micros";
inline constexpr std::string_view kJoinVerifyChunkMicros =
    "join.verify.chunk_micros";
// Spill accounting (emitted only when a join actually spilled): the
// counters are deterministic for a fixed input + spill configuration.
inline constexpr std::string_view kJoinSpillPartitions =
    "join.spill.partitions";
inline constexpr std::string_view kJoinSpillBytesWritten =
    "join.spill.bytes_written";
inline constexpr std::string_view kJoinSpillBytesRead =
    "join.spill.bytes_read";
inline constexpr std::string_view kJoinSpillRetries = "join.spill.retries";
inline constexpr std::string_view kDbmsRowsSignature = "dbms.rows.signature";
inline constexpr std::string_view kDbmsRowsCandPair = "dbms.rows.candpair";
inline constexpr std::string_view kDbmsRowsOutput = "dbms.rows.output";
/// Dynamic family: "guard.trips." + TripReasonName(reason). The prefix
/// is the registered name; the lint accepts the prefix literal at the
/// construction site.
inline constexpr std::string_view kGuardTripsPrefix = "guard.trips.";
inline constexpr std::string_view kThreadpoolForkjoins =
    "threadpool.forkjoins";
inline constexpr std::string_view kThreadpoolSize = "threadpool.size";

// Per-operator pipeline metrics (core/pipeline + obs/join_telemetry's
// OpInstrument). Dynamic family: "pipeline." + <op tag> + suffix, e.g.
// "pipeline.verify.rows_out". The prefix is the registered name; the
// lint accepts the prefix literal at the construction site. Row totals
// (.rows_in/.rows_out) are functions of the input and plan, hence
// kStable and exactly equal at any thread count / spill mode; batch
// counts and self-time (.batches/.ns) depend on batch granularity and
// the wall clock, hence kRuntime.
inline constexpr std::string_view kPipelinePrefix = "pipeline.";
inline constexpr std::string_view kPipelineSuffixBatches = ".batches";
inline constexpr std::string_view kPipelineSuffixRowsIn = ".rows_in";
inline constexpr std::string_view kPipelineSuffixRowsOut = ".rows_out";
inline constexpr std::string_view kPipelineSuffixNs = ".ns";
// Operator metric tags (the <op> component). Tags are stable lowercase
// identifiers, distinct from the human-facing operator names that the
// EXPLAIN plan prints.
inline constexpr std::string_view kOpSigGen = "siggen";
inline constexpr std::string_view kOpCandGen = "candgen";
inline constexpr std::string_view kOpBitmapFilter = "bitmap_filter";
inline constexpr std::string_view kOpVerify = "verify";
inline constexpr std::string_view kOpDedupEmit = "dedup_emit";
inline constexpr std::string_view kOpSpillPartition = "spill_partition";

// Structured-log accounting (obs/log.h). Line counts depend on pacing
// and interleaving — kRuntime only.
inline constexpr std::string_view kLogLinesDebug = "log.lines.debug";
inline constexpr std::string_view kLogLinesInfo = "log.lines.info";
inline constexpr std::string_view kLogLinesWarn = "log.lines.warn";
inline constexpr std::string_view kLogLinesError = "log.lines.error";
inline constexpr std::string_view kLogWriteErrors = "log.write_errors";

// Progress heartbeat (obs/progress.h): beats taken by the background
// thread and synchronous DumpNow()/signal dumps. Wall-clock paced —
// kRuntime only.
inline constexpr std::string_view kProgressBeats = "progress.beats";
inline constexpr std::string_view kProgressDumps = "progress.dumps";

// Structured-log event names (obs/log.h Log()/LogEvent() call sites —
// the telemetry-registry lint checks these like span/metric names).
inline constexpr std::string_view kLogEventJoinStart = "join_start";
inline constexpr std::string_view kLogEventJoinFinish = "join_finish";
inline constexpr std::string_view kLogEventJoinAbort = "join_abort";
inline constexpr std::string_view kLogEventSpillDegrade = "spill_degrade";
inline constexpr std::string_view kLogEventSpillRetry = "spill_retry";
inline constexpr std::string_view kLogEventApproxAlgo = "approximate_algo";
inline constexpr std::string_view kLogEventProgress = "progress";

// Explain-quantity names (drift accounting, obs/explain.h). The join.*
// quantities above double as drift names; kJoinF2 is explain-only: the
// Section 3.2 intermediate-result size the advisor predicts.
inline constexpr std::string_view kJoinF2 = "join.f2";

// Explain parameter keys recorded by the drivers and front ends.
inline constexpr std::string_view kParamGamma = "gamma";
inline constexpr std::string_view kParamK = "k";
inline constexpr std::string_view kParamN1 = "n1";
inline constexpr std::string_view kParamN2 = "n2";
inline constexpr std::string_view kParamAlgo = "algo";
inline constexpr std::string_view kParamInput = "input";
inline constexpr std::string_view kParamBitmapBits = "bitmap_bits";
// Spill configuration of the run (core/spill): entry cause and the
// partition count the attempt started from.
inline constexpr std::string_view kParamSpill = "spill";
inline constexpr std::string_view kParamSpillPartitions = "spill_partitions";
// Note: there is deliberately no "threads" param — explain params are
// exported in the stable JSONL, which must be byte-identical across
// thread counts. Thread count is runtime detail (the human report).

}  // namespace names

}  // namespace ssjoin::obs
