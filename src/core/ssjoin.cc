#include "core/ssjoin.h"

#include <algorithm>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/execution_guard.h"
#include "core/kernels/bitmap_filter.h"
#include "core/kernels/intersect.h"
#include "core/pipeline/stages.h"
#include "core/spill/spill_join.h"
#include "obs/explain.h"
#include "obs/join_telemetry.h"
#include "obs/log.h"
#include "util/thread_pool.h"

// The public API — request validation — and the one Figure-2 driver.
// The driver sets up telemetry and the guard, runs the join's fixed
// stage sequence (core/pipeline/stages.h, DESIGN.md Section 13) as
// plain function calls, and publishes the accounting. An out-of-core
// run (core/spill) is the same driver with the spilled source.

namespace ssjoin {

std::string JoinStats::ToString() const {
  std::ostringstream os;
  os << "time=" << TotalSeconds() << "s (sig=" << siggen_seconds
     << " cand=" << candpair_seconds << " post=" << postfilter_seconds
     << ") sigs=" << signatures_r << "+" << signatures_s
     << " collisions=" << signature_collisions << " F2=" << F2()
     << " candidates=" << candidates << " results=" << results
     << " false_pos=" << false_positives
     << " bitmap_checked=" << bitmap_filter_checked
     << " bitmap_pruned=" << bitmap_filter_pruned;
  if (spill_partitions > 0) {
    os << " spill_partitions=" << spill_partitions
       << " spill_written=" << spill_bytes_written
       << " spill_read=" << spill_bytes_read
       << " spill_retries=" << spill_retries;
  }
  return os.str();
}

namespace {

// Publishes the end-of-join accounting — root-span attributes plus the
// join.* metrics — and, when the guard tripped, the trip cause as a span
// event on the root. Runs on every exit path, so traces and metrics of
// tripped runs still carry the partial accounting the stats report.
// Everything published here is derived from JoinStats, which is
// byte-identical for every thread count (the determinism contract) —
// except the intersect-kernel dispatch deltas, which read process-global
// counters that concurrent joins also move, and are therefore published
// as kRuntime counters only.
// `isect_start` is the process-wide dispatch snapshot the driver took at
// entry; the delta is this join's kernel mix.
void FinishJoin(obs::JoinTelemetry& telem, const JoinResult& result,
                ExecutionGuard* guard, obs::ExplainReport* explain,
                const kernels::IntersectCounts& isect_start) {
  if (guard != nullptr && guard->tripped()) {
    std::string_view reason = TripReasonName(guard->trip_reason());
    telem.Event("guard_trip", reason);
    telem.Attr("trip", reason);
    if (explain != nullptr) explain->trip = std::string(reason);
  }
  const JoinStats& stats = result.stats;
  telem.Attr("signatures_r", stats.signatures_r);
  telem.Attr("signatures_s", stats.signatures_s);
  telem.Attr("signature_collisions", stats.signature_collisions);
  telem.Attr("candidates", stats.candidates);
  telem.Attr("results", stats.results);
  telem.Attr("false_positives", stats.false_positives);
  telem.AddCount("join.runs", 1);
  telem.AddCount("join.signatures", stats.signatures_r + stats.signatures_s);
  telem.AddCount("join.signature_collisions", stats.signature_collisions);
  telem.AddCount("join.candidates", stats.candidates);
  telem.AddCount("join.results", stats.results);
  telem.AddCount("join.false_positives", stats.false_positives);
  // Candidates kept per signature collision: the dedup effectiveness of
  // candidate generation (1.0 = every collision was a distinct pair).
  telem.SetGauge("join.candidate_dedup_ratio",
                 stats.signature_collisions > 0
                     ? static_cast<double>(stats.candidates) /
                           static_cast<double>(stats.signature_collisions)
                     : 1.0);
  telem.SetGauge("join.seconds.total", stats.TotalSeconds(),
                 obs::Stability::kRuntime);
  // Bitmap pre-filter effectiveness (DESIGN.md Section 11). The counters
  // derive from JoinStats, so they are deterministic; a join without
  // candidates reports 0 checked / 0 pruned and a 0.0 rate.
  telem.Attr("bitmap_filter_checked", stats.bitmap_filter_checked);
  telem.Attr("bitmap_filter_pruned", stats.bitmap_filter_pruned);
  telem.AddCount("join.bitmap_filter_checked", stats.bitmap_filter_checked);
  telem.AddCount("join.bitmap_filter_pruned", stats.bitmap_filter_pruned);
  telem.SetGauge("join.bitmap_prune_rate",
                 stats.bitmap_filter_checked > 0
                     ? static_cast<double>(stats.bitmap_filter_pruned) /
                           static_cast<double>(stats.bitmap_filter_checked)
                     : 0.0);
  // Which IntersectSize kernel verification actually ran: runtime-only
  // (process-global counters, so it must stay out of the deterministic
  // export).
  kernels::IntersectCounts isect = kernels::IntersectDispatchCounts();
  telem.AddCount("join.intersect.scalar", isect.scalar - isect_start.scalar,
                 obs::Stability::kRuntime);
  telem.AddCount("join.intersect.galloping",
                 isect.galloping - isect_start.galloping,
                 obs::Stability::kRuntime);
  // Drift actuals: everything stable the advisor can predict, plus the
  // run outcome quantities (one-sided entries render without a ratio).
  // RecordActual is null-safe — a detached explain costs one compare.
  obs::RecordActual(explain, "join.signatures",
                    static_cast<double>(stats.signatures_r +
                                        stats.signatures_s));
  obs::RecordActual(explain, "join.signature_collisions",
                    static_cast<double>(stats.signature_collisions));
  obs::RecordActual(explain, "join.f2",
                    static_cast<double>(stats.F2()));
  obs::RecordActual(explain, "join.candidates",
                    static_cast<double>(stats.candidates));
  obs::RecordActual(explain, "join.results",
                    static_cast<double>(stats.results));
  obs::RecordActual(explain, "join.false_positives",
                    static_cast<double>(stats.false_positives));
  obs::RecordActual(explain, "join.bitmap_filter_checked",
                    static_cast<double>(stats.bitmap_filter_checked));
  obs::RecordActual(explain, "join.bitmap_filter_pruned",
                    static_cast<double>(stats.bitmap_filter_pruned));
  // Out-of-core accounting, emitted only when the join actually spilled
  // so in-memory runs keep their pre-spill telemetry shape (DESIGN.md
  // Section 12). All four counters are deterministic for a fixed input
  // and spill configuration.
  if (stats.spill_partitions > 0) {
    telem.Attr("spill_partitions", stats.spill_partitions);
    telem.Attr("spill_retries", stats.spill_retries);
    telem.AddCount("join.spill.partitions", stats.spill_partitions);
    telem.AddCount("join.spill.bytes_written", stats.spill_bytes_written);
    telem.AddCount("join.spill.bytes_read", stats.spill_bytes_read);
    telem.AddCount("join.spill.retries", stats.spill_retries);
    obs::RecordActual(explain, "join.spill.bytes_written",
                      static_cast<double>(stats.spill_bytes_written));
  }
  if (explain != nullptr) {
    explain->joins += 1;
    explain->siggen_seconds += stats.siggen_seconds;
    explain->candpair_seconds += stats.candpair_seconds;
    explain->postfilter_seconds += stats.postfilter_seconds;
  }
}

// The ledgers of every stage a pass can run; the chain built in RunJoin
// picks the ones that do. Each feeds its time into one of `stats`'
// seconds fields (dedup_emit into none).
struct Stages {
  explicit Stages(JoinStats* stats)
      : siggen(obs::names::kOpSigGen, "csr", &stats->siggen_seconds),
        candgen(obs::names::kOpCandGen, "sorted shards",
                &stats->candpair_seconds),
        partition(obs::names::kOpSpillPartition, "partitioned",
                  &stats->candpair_seconds),
        filter(obs::names::kOpBitmapFilter,
               std::to_string(kernels::kBitmapBits) + "-bit deferred",
               &stats->postfilter_seconds),
        verify(obs::names::kOpVerify, "chunked", &stats->postfilter_seconds),
        emit(obs::names::kOpDedupEmit, "append", nullptr) {}

  obs::Stage siggen;
  obs::Stage candgen;
  obs::Stage partition;
  obs::Stage filter;
  obs::Stage verify;
  obs::Stage emit;
};

// Marks the join spilled — "forced" up front, or "auto" when an
// in-memory pass degrades — on the root span and the EXPLAIN header.
void MarkSpilled(const pipeline::ExecContext& ctx, std::string_view how) {
  ctx.telem->Attr("spill", how);
  if (obs::ExplainReport* explain = ctx.options->explain) {
    explain->SetParam("spill", how);
    const uint32_t partitions = ctx.options->spill.partitions;
    explain->SetParam("spill_partitions",
                      std::to_string(partitions != 0
                                         ? partitions
                                         : spill::kDefaultPartitions));
  }
}

// The stage sequence (DESIGN.md Section 13): the bitmap tables, then the
// source, which pairs up and filters in one pass and yields only the
// survivors with their pre-filter offsets; then per
// kVerifySpan-candidate span the filter rows, the verify barrier and
// evaluation, and the append; the final verify barrier last. When the
// auto-spill budget check fires after SigGen, before the guard could
// latch, the same pass degrades: it resets siggen's signature counts,
// binds spill_partition into `chain` after candgen as its source and
// hands it the tables siggen generated. siggen and candgen keep their
// rows and time, so the one chain reports all the join paid for.
Status RunStages(const pipeline::ExecContext& ctx, std::string_view mode,
                 Stages& stages, std::vector<obs::Stage*>* chain) {
  const JoinOptions& options = *ctx.options;
  pipeline::BitmapTables bitmaps;
  pipeline::SignatureTable left, right;
  kernels::Survivors survivors;
  if (options.spill.policy == SpillPolicy::kForced) {
    pipeline::BuildBitmaps(ctx, &stages.filter, &bitmaps);
    SSJOIN_RETURN_NOT_OK(pipeline::PartitionCandidates(
        ctx, &stages.partition, bitmaps, &left, &right, &survivors));
  } else {
    SSJOIN_RETURN_NOT_OK(
        pipeline::GenerateSignatures(ctx, &stages.siggen, &left, &right));
    stages.candgen.rows_in = left.total() + right.total();
    pipeline::BuildBitmaps(ctx, &stages.filter, &bitmaps);
    if (!pipeline::ExceedsSpillBudget(ctx, left, right)) {
      SSJOIN_RETURN_NOT_OK(pipeline::PairCandidates(
          ctx, &stages.candgen, bitmaps, &left, &right, &survivors));
    } else {
      ctx.result->stats.signatures_r = ctx.result->stats.signatures_s = 0;
      obs::LogEvent(options.log, obs::LogLevel::kWarn, "spill_degrade",
                    {{"mode", mode}});
      MarkSpilled(ctx, "auto");
      chain->insert(chain->begin() + 2, &stages.partition);
      stages.partition.Bind(ctx.telem,
                            static_cast<uint32_t>(chain->size() - 1));
      SSJOIN_RETURN_NOT_OK(pipeline::PartitionCandidates(
          ctx, &stages.partition, bitmaps, &left, &right, &survivors));
    }
  }
  if (ctx.guard != nullptr) {
    ctx.guard->ChargeMemory(bitmaps.left.size_bytes() +
                            bitmaps.right.size_bytes());
  }
  // Survivors [next, last) are those of the span [start, end).
  const std::span<const uint64_t> pairs(survivors.pairs);
  size_t next = 0;
  std::vector<std::vector<SetPair>> verified;
  for (uint64_t start = 0; start < survivors.candidates;
       start += pipeline::kVerifySpan) {
    const uint64_t end =
        std::min<uint64_t>(start + pipeline::kVerifySpan, survivors.candidates);
    size_t last = next;
    while (last < pairs.size() && survivors.offsets[last] < end) ++last;
    pipeline::BitmapTally tally =
        pipeline::TallySpan(&stages.filter, end - start, last - next);
    SSJOIN_RETURN_NOT_OK(pipeline::VerifySpan(ctx, &stages.verify, start,
                                              pairs.subspan(next, last - next),
                                              tally, &verified));
    pipeline::EmitPairs(ctx, &stages.emit, verified);
    next = last;
  }
  return pipeline::FinishVerify(ctx, &stages.verify, survivors.candidates);
}

// The driver, once per Join(). `request` is validated and its spill
// policy resolved.
JoinResult RunJoin(const JoinRequest& request) {
  const JoinOptions& options = request.options;
  const SetCollection& left = *request.left;
  const SetCollection* right =
      request.mode == ExecutionMode::kBinaryJoin ? request.right : nullptr;
  const std::string_view mode = ExecutionModeName(request.mode);
  const bool forced = options.spill.policy == SpillPolicy::kForced;
  const uint64_t input_sets =
      left.size() + (right != nullptr ? right->size() : 0);
  JoinResult result;
  obs::JoinTelemetry telem(options.tracer, options.metrics, "join");
  telem.Attr("mode", mode);
  if (right != nullptr) {
    telem.Attr("input_sets_r", static_cast<uint64_t>(left.size()));
    telem.Attr("input_sets_s", static_cast<uint64_t>(right->size()));
  } else {
    telem.Attr("input_sets", static_cast<uint64_t>(left.size()));
  }
  ThreadPool pool(ResolveThreadCount(options.num_threads));
  pipeline::ExecContext ctx;
  ctx.left = &left;
  ctx.right = right;
  ctx.scheme = request.scheme;
  ctx.predicate = request.predicate;
  ctx.options = &options;
  ctx.pool = &pool;
  ctx.guard = options.guard;
  ctx.telem = &telem;
  ctx.result = &result;
  if (forced) {
    MarkSpilled(ctx, "forced");
    obs::LogEvent(options.log, obs::LogLevel::kDebug, "join_start",
                  {{"mode", mode},
                   {"spill", "forced"},
                   {"input_sets", input_sets}});
  } else {
    obs::LogEvent(options.log, obs::LogLevel::kDebug, "join_start",
                  {{"mode", mode}, {"input_sets", input_sets}});
  }
  pool.BindMetrics(options.metrics);
  ExecutionGuard* guard = options.guard;
  if (guard != nullptr) guard->BindMetrics(options.metrics);
  kernels::IntersectCounts isect0 = kernels::IntersectDispatchCounts();

  // The chain, source first. Its order is the EXPLAIN plan rows' order;
  // every stage in it is bound before it runs (its bind order is its
  // trace lane) and closed, in chain order, on every exit path.
  Stages stages(&result.stats);
  std::vector<obs::Stage*> chain;
  if (forced) {
    chain = {&stages.partition};
  } else {
    chain = {&stages.siggen, &stages.candgen};
  }
  chain.insert(chain.end(), {&stages.filter, &stages.verify, &stages.emit});
  // The executed plan replaces any previous join's rows (accumulated
  // explain reports show the last plan; see obs/explain.h).
  if (options.explain != nullptr) options.explain->plan.clear();
  for (size_t i = 0; i < chain.size(); ++i) {
    chain[i]->Bind(&telem, static_cast<uint32_t>(i));
  }
  Status status = RunStages(ctx, mode, stages, &chain);
  for (obs::Stage* stage : chain) stage->Close(options.explain);
  if (!status.ok()) {
    result.pairs.clear();
    result.status = std::move(status);
  }
  FinishJoin(telem, result, guard, options.explain, isect0);
  if (!result.status.ok()) {
    obs::LogEvent(options.log, obs::LogLevel::kWarn, "join_abort",
                  {{"error", result.status.ToString()}});
  } else if (result.stats.spill_partitions == 0) {
    obs::LogEvent(options.log, obs::LogLevel::kInfo, "join_finish",
                  {{"results", result.stats.results},
                   {"candidates", result.stats.candidates}});
  } else {
    obs::LogEvent(options.log, obs::LogLevel::kInfo, "join_finish",
                  {{"results", result.stats.results},
                   {"candidates", result.stats.candidates},
                   {"spill_partitions", result.stats.spill_partitions},
                   {"spill_retries", result.stats.spill_retries}});
  }
  return result;
}

JoinResult InvalidResult(Status st) {
  JoinResult result;
  result.status = std::move(st);
  return result;
}

}  // namespace

std::string_view ExecutionModeName(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kSelfJoin:
    case ExecutionMode::kPipelinedSelfJoin:
      return "self";
    case ExecutionMode::kBinaryJoin:
      return "binary";
  }
  return "unknown";
}

Status ValidateJoinOptions(const JoinOptions& options) {
  if (options.num_threads > kMaxJoinThreads) {
    return Status::InvalidArgument(
        "JoinOptions::num_threads must be at most 4096 (0 = one per core)");
  }
  if (options.spill.partitions > kMaxSpillPartitions) {
    return Status::InvalidArgument(
        "SpillOptions::partitions must be at most 4096 (0 = default)");
  }
  return Status::OK();
}

Status JoinRequest::Validate() const {
  if (left == nullptr) {
    return Status::InvalidArgument("JoinRequest::left is required");
  }
  if (scheme == nullptr) {
    return Status::InvalidArgument("JoinRequest::scheme is required");
  }
  if (predicate == nullptr) {
    return Status::InvalidArgument("JoinRequest::predicate is required");
  }
  SSJOIN_RETURN_NOT_OK(ValidateJoinOptions(options));
  switch (mode) {
    case ExecutionMode::kSelfJoin:
    case ExecutionMode::kPipelinedSelfJoin:
      if (right != nullptr && right != left) {
        return Status::InvalidArgument(
            "self-join modes take a single input; JoinRequest::right must "
            "be null or alias left");
      }
      return Status::OK();
    case ExecutionMode::kBinaryJoin:
      if (right == nullptr) {
        return Status::InvalidArgument(
            "ExecutionMode::kBinaryJoin requires JoinRequest::right");
      }
      return Status::OK();
  }
  return Status::InvalidArgument("unknown ExecutionMode");
}

JoinRequest SelfJoinRequest(const SetCollection& input,
                            const SignatureScheme& scheme,
                            const Predicate& predicate, JoinOptions options) {
  JoinRequest request;
  request.left = &input;
  request.scheme = &scheme;
  request.predicate = &predicate;
  request.mode = ExecutionMode::kSelfJoin;
  request.options = std::move(options);
  return request;
}

JoinRequest BinaryJoinRequest(const SetCollection& r, const SetCollection& s,
                              const SignatureScheme& scheme,
                              const Predicate& predicate,
                              JoinOptions options) {
  JoinRequest request;
  request.left = &r;
  request.right = &s;
  request.scheme = &scheme;
  request.predicate = &predicate;
  request.mode = ExecutionMode::kBinaryJoin;
  request.options = std::move(options);
  return request;
}

JoinResult Join(const JoinRequest& request) {
  // The pipelined alias runs the self-join: validation, spans, EXPLAIN
  // and logs all see kSelfJoin.
  JoinRequest resolved = request;
  if (resolved.mode == ExecutionMode::kPipelinedSelfJoin) {
    resolved.mode = ExecutionMode::kSelfJoin;
  }
  if (Status st = resolved.Validate(); !st.ok()) {
    // Invalid requests return before any observability attaches: the
    // explain header is only stamped for requests that will execute.
    return InvalidResult(std::move(st));
  }
  // EXPLAIN header: the chosen driver and the stable input-size params.
  // Thread count is deliberately absent — the report's stable fields
  // must be byte-identical across thread counts (DESIGN.md Section 9).
  if (obs::ExplainReport* ex = resolved.options.explain) {
    ex->mode = std::string(ExecutionModeName(resolved.mode));
    ex->SetParam("input_sets", std::to_string(resolved.left->size()));
    if (resolved.mode == ExecutionMode::kBinaryJoin) {
      ex->SetParam("input_sets_r", std::to_string(resolved.left->size()));
      ex->SetParam("input_sets_s", std::to_string(resolved.right->size()));
    }
  }
  // Resolve SpillPolicy::kDefault (the SSJOIN_SPILL env hook) once here,
  // so the driver and the spill layer only ever see explicit policies.
  // Forcing the spill path is valid for every mode.
  resolved.options.spill.policy =
      spill::ResolvePolicy(resolved.options.spill.policy);
  return RunJoin(resolved);
}

}  // namespace ssjoin
