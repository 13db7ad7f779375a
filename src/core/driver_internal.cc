// Definitions of the shared driver building blocks declared in
// core/driver_internal.h. These used to live in core/ssjoin.cc; the
// operator pipeline (core/pipeline) and the spill layer (core/spill) now
// consume them from here, so the exact candidate-generation and
// accounting code runs in every execution path — which is what makes the
// byte-identity contract (DESIGN.md Section 12) a structural property.

#include "core/driver_internal.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>

#include "obs/explain.h"

namespace ssjoin::detail {

std::function<bool()> StopFn(ExecutionGuard* guard, JoinPhase phase) {
  if (guard == nullptr) return {};
  return [guard, phase] { return guard->ShouldStop(phase); };
}

// Publishes the end-of-join accounting — root-span attributes plus the
// join.* metrics — and, when the guard tripped, the trip cause as a span
// event on the root. Called on every exit path, so traces and metrics of
// tripped runs still carry the partial accounting the stats report.
// Everything published here is derived from JoinStats, which is
// byte-identical for every thread count (the determinism contract) —
// except the intersect-kernel dispatch deltas, which depend on the host
// CPU and are therefore published as kRuntime counters only.
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
  // derive from JoinStats, so they are deterministic; a disabled filter
  // reports 0 checked / 0 pruned and a 0.0 rate.
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
  // (the mix depends on __builtin_cpu_supports and the SSJOIN_SIMD build
  // gate, so it must stay out of the deterministic export).
  kernels::IntersectCounts isect = kernels::IntersectDispatchCounts();
  telem.AddCount("join.intersect.scalar", isect.scalar - isect_start.scalar,
                 obs::Stability::kRuntime);
  telem.AddCount("join.intersect.galloping",
                 isect.galloping - isect_start.galloping,
                 obs::Stability::kRuntime);
  telem.AddCount("join.intersect.simd", isect.simd - isect_start.simd,
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

// Replaces *scratch with the deduplicated, sorted Sign(set).
void GenerateSorted(const SignatureScheme& scheme,
                    std::span<const ElementId> set,
                    std::vector<Signature>* scratch) {
  scratch->clear();
  scheme.Generate(set, scratch);
  std::sort(scratch->begin(), scratch->end());
  scratch->erase(std::unique(scratch->begin(), scratch->end()),
                 scratch->end());
}

// Unions sorted duplicate-free candidate lists: log2(n) pairwise
// set_union rounds, the merges of each round running in parallel.
std::vector<uint64_t> UnionShards(std::vector<std::vector<uint64_t>> lists,
                                  ThreadPool& pool,
                                  const std::function<bool()>& stop) {
  if (lists.empty()) return {};
  while (lists.size() > 1) {
    size_t pairs = lists.size() / 2;
    std::vector<std::vector<uint64_t>> next(pairs + lists.size() % 2);
    ParallelFor(pool, pairs, [&](size_t begin, size_t end, size_t) {
      for (size_t p = begin; p < end; ++p) {
        if (stop && stop()) return;
        const std::vector<uint64_t>& a = lists[2 * p];
        const std::vector<uint64_t>& b = lists[2 * p + 1];
        std::vector<uint64_t> merged;
        merged.reserve(a.size() + b.size());
        std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                       std::back_inserter(merged));
        next[p] = std::move(merged);
      }
    });
    if (lists.size() % 2) next.back() = std::move(lists.back());
    lists = std::move(next);
    if (stop && stop()) break;
  }
  return std::move(lists[0]);
}

// Shared candidate-generation phase: run `shard_fn` per pool shard, then
// union the shard outputs. Fills stats->signature_collisions /
// stats->candidates and returns the global sorted duplicate-free
// candidate vector.
std::vector<uint64_t> GenerateCandidates(
    ThreadPool& pool,
    const std::function<kernels::ShardCandidates(size_t)>& shard_fn,
    const std::function<bool()>& stop, JoinStats* stats,
    obs::JoinTelemetry* telem) {
  size_t shards = pool.size();
  std::vector<kernels::ShardCandidates> per_shard(shards);
  obs::Histogram* shard_candidates =
      telem->metrics() != nullptr
          ? &telem->metrics()->histogram("join.shard.candidates")
          : nullptr;
  obs::Histogram* shard_micros =
      telem->metrics() != nullptr
          ? &telem->metrics()->histogram("join.shard.micros")
          : nullptr;
  pool.RunOnAll([&](size_t shard) {
    {
      // Runtime span per shard (lane = shard + 1; lane 0 is the control
      // thread) — excluded from the deterministic export.
      auto sample = telem->Sample("shard", shard_micros,
                                  static_cast<uint32_t>(shard) + 1);
      per_shard[shard] = shard_fn(shard);
      if (sample.span() != obs::kNoSpan) {
        telem->tracer()->SetAttr(
            sample.span(), "candidates",
            static_cast<uint64_t>(per_shard[shard].packed.size()));
      }
    }
    if (shard_candidates != nullptr) {
      shard_candidates->Record(per_shard[shard].packed.size());
    }
  });
  std::vector<std::vector<uint64_t>> lists;
  lists.reserve(shards);
  for (kernels::ShardCandidates& sc : per_shard) {
    stats->signature_collisions += sc.collisions;
    lists.push_back(std::move(sc.packed));
  }
  std::vector<uint64_t> candidates =
      UnionShards(std::move(lists), pool, stop);
  stats->candidates = candidates.size();
  return candidates;
}

// Builds the XOR bitmap signature table for `input` with the rows
// sharded across the pool. Row contents are per-set independent, so the
// table is byte-identical for every thread count.
kernels::BitmapTable BuildBitmap(const SetCollection& input, uint32_t bits,
                                 ThreadPool& pool) {
  kernels::BitmapTable table =
      kernels::BitmapTable::Prepare(input.size(), bits);
  ParallelFor(pool, input.size(),
              [&](size_t begin, size_t end, size_t) {
                table.BuildRange(input, begin, end);
              });
  return table;
}

}  // namespace ssjoin::detail
