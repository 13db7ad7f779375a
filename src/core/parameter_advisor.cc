#include "core/parameter_advisor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/explain.h"
#include "util/ams_sketch.h"
#include "util/check.h"

namespace ssjoin {

namespace {

// The exact collision count is settled, and the bound checked against
// it, once per 1/kCountBlocks of the sampled sets.
constexpr size_t kCountBlocks = 16;

// Sample-signature statistics: total count S and pairwise collision count
// C = sum_v C(c_v, 2) over signature values v. When `pruned`, scoring
// stopped early and both are the partial counts it stopped at.
struct SampleStats {
  uint64_t signatures = 0;
  double collisions = 0;
  bool pruned = false;
};

// target / sample: signatures scale linearly with it, pairwise
// collisions quadratically.
double Scale(size_t sample_size, size_t target_size) {
  if (sample_size == 0) return 0;
  return static_cast<double>(target_size) /
         static_cast<double>(sample_size);
}

// Self-join intermediate-result size (Section 3.2, matching JoinStats):
// 2 * sum|Sign| + collisions, extrapolated by `scale`.
double Extrapolate(const SampleStats& stats, double scale) {
  return 2.0 * static_cast<double>(stats.signatures) * scale +
         stats.collisions * scale * scale;
}

// Sorts the block (*all)[sorted, end) and merges it into the sorted
// prefix (*all)[0, sorted). Returns the collisions the block adds: for a
// value seen a times in the prefix and b times in the block,
// C(a + b, 2) - C(a, 2) = C(b, 2) + a * b.
uint64_t MergeBlock(std::vector<Signature>* all, size_t sorted) {
  auto first = all->begin();
  auto middle = first + static_cast<std::ptrdiff_t>(sorted);
  auto last = all->end();
  std::sort(middle, last);
  uint64_t added = 0;
  auto prefix = first;
  for (auto run = middle; run != last;) {
    Signature value = *run;
    auto run_end = std::find_if(run, last,
                                [value](Signature s) { return s != value; });
    while (prefix != middle && *prefix < value) ++prefix;
    auto prefix_end = prefix;
    while (prefix_end != middle && *prefix_end == value) ++prefix_end;
    uint64_t a = static_cast<uint64_t>(prefix_end - prefix);
    uint64_t b = static_cast<uint64_t>(run_end - run);
    added += b * (b - 1) / 2 + a * b;
    prefix = prefix_end;
    run = run_end;
  }
  std::inplace_merge(first, middle, last);
  return added;
}

// Scores `scheme` on the sample. Each set's signatures are generated and
// deduplicated in turn; S grows with every set, and the exact C with
// every block of sets, so Extrapolate() over the sets seen so far is a
// lower bound on the full estimate. Scoring stops, pruned, as soon as
// that bound is strictly above `bound`. The sketch's C is known only at
// the end, so with the sketch only the S term is checked.
SampleStats ScoreScheme(const SetCollection& sample,
                        const SignatureScheme& scheme, double scale,
                        double bound, const AdvisorOptions& options) {
  SampleStats stats;
  std::vector<Signature> all;  // sorted counted prefix, then the open block
  std::vector<Signature> scratch;
  AmsSketch sketch(16, 5, options.seed);
  uint64_t collisions = 0;
  size_t sorted = 0;
  const size_t block_sets =
      std::max<size_t>(1, (sample.size() + kCountBlocks - 1) / kCountBlocks);
  for (SetId id = 0; id < sample.size(); ++id) {
    scratch.clear();
    scheme.Generate(sample.set(id), &scratch);
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()),
                  scratch.end());
    stats.signatures += scratch.size();
    if (options.use_ams_sketch) {
      for (Signature sig : scratch) sketch.Add(sig);
    } else {
      all.insert(all.end(), scratch.begin(), scratch.end());
      if ((id + 1) % block_sets == 0 || id + 1 == sample.size()) {
        collisions += MergeBlock(&all, sorted);
        sorted = all.size();
        stats.collisions = static_cast<double>(collisions);
      }
    }
    if (Extrapolate(stats, scale) > bound) {
      stats.pruned = true;
      return stats;
    }
  }
  if (options.use_ams_sketch) {
    // F2 = sum c_v^2 = 2C + S  =>  C = (F2 - S) / 2.
    double f2 = sketch.Estimate();
    SSJOIN_CHECK(f2 >= 0 && std::isfinite(f2),
                 "AMS estimate {} is not a finite non-negative F2 "
                 "(median-of-means over squared sums cannot go negative)",
                 f2);
    stats.collisions =
        std::max(0.0, (f2 - static_cast<double>(stats.signatures)) / 2.0);
  }
  return stats;
}

// Deterministic candidate labels for the EXPLAIN search table. They are
// the advisor's public vocabulary: tests and the CLI match on them.
std::string PartEnumLabel(const PartEnumParams& params) {
  return "n1=" + std::to_string(params.n1) +
         ",n2=" + std::to_string(params.n2);
}

std::string LshLabel(const LshParams& params) {
  return "g=" + std::to_string(params.g) +
         ",l=" + std::to_string(params.l);
}

// One Choose* search: scores the settings offered, in order, each bounded
// by the best complete estimate so far, and keeps the running argmin
// (lowest estimate, then fewest signatures per set, then the first
// offered). With a trace attached it fills the search header, appends
// one row per setting and keeps the chosen mark on the best row; rows of
// earlier searches sharing the trace keep their own marks.
class Search {
 public:
  Search(const SetCollection& input, size_t target_input_size,
         std::string_view method, const AdvisorOptions& options)
      : options_(options),
        sample_(input.Sample(options.sample_size, options.seed)) {
    if (target_input_size == 0) target_input_size = input.size();
    scale_ = Scale(sample_.size(), target_input_size);
    obs::AdvisorTrace* trace = options_.trace;
    if (trace == nullptr) return;
    trace->method = std::string(method);
    trace->sample_size = sample_.size();
    trace->target_input_size = target_input_size;
    trace->used_ams_sketch = options_.use_ams_sketch;
  }

  // Scores one setting; true when it is the new best.
  bool Offer(const SignatureScheme& scheme, std::string label,
             uint64_t signatures_per_set) {
    SampleStats stats =
        ScoreScheme(sample_, scheme, scale_, best_f2_, options_);
    double f2 = Extrapolate(stats, scale_);
    bool best = !stats.pruned &&
                (f2 < best_f2_ ||
                 (f2 == best_f2_ && signatures_per_set < best_signatures_));
    if (best) {
      best_f2_ = f2;
      best_signatures_ = signatures_per_set;
    }
    obs::AdvisorTrace* trace = options_.trace;
    if (trace == nullptr) return best;
    obs::AdvisorCandidate candidate;
    candidate.label = std::move(label);
    candidate.signatures_per_set = signatures_per_set;
    candidate.sample_signatures = stats.signatures;
    candidate.sample_collisions = stats.collisions;
    candidate.predicted_signatures =
        2.0 * static_cast<double>(stats.signatures) * scale_;
    candidate.predicted_collisions = stats.collisions * scale_ * scale_;
    candidate.predicted_f2 = f2;
    candidate.pruned = stats.pruned;
    candidate.chosen = best;
    if (best && best_row_ < trace->candidates.size()) {
      trace->candidates[best_row_].chosen = false;
    }
    if (best) best_row_ = trace->candidates.size();
    trace->candidates.push_back(std::move(candidate));
    return best;
  }

  double best_f2() const { return best_f2_; }

 private:
  const AdvisorOptions& options_;
  SetCollection sample_;
  double scale_ = 0;
  double best_f2_ = std::numeric_limits<double>::infinity();
  uint64_t best_signatures_ = 0;
  size_t best_row_ = std::numeric_limits<size_t>::max();
};

}  // namespace

double EstimateSchemeF2(const SetCollection& input,
                        const SignatureScheme& scheme,
                        size_t target_input_size,
                        const AdvisorOptions& options) {
  if (target_input_size == 0) target_input_size = input.size();
  SetCollection sample = input.Sample(options.sample_size, options.seed);
  double scale = Scale(sample.size(), target_input_size);
  SampleStats stats = ScoreScheme(
      sample, scheme, scale, std::numeric_limits<double>::infinity(),
      options);
  return Extrapolate(stats, scale);
}

Result<PartEnumChoice> ChoosePartEnumParams(const SetCollection& input,
                                            uint32_t k,
                                            size_t target_input_size,
                                            const AdvisorOptions& options) {
  Search search(input, target_input_size, "partenum", options);
  std::optional<PartEnumChoice> best;
  for (const PartEnumParams& params : PartEnumParams::EnumerateValid(
           k, options.max_signatures_per_set, options.seed)) {
    auto scheme = PartEnumScheme::Create(params);
    if (!scheme.ok()) continue;
    if (search.Offer(*scheme, PartEnumLabel(params),
                     params.SignaturesPerSet())) {
      best = PartEnumChoice{params, search.best_f2(),
                            params.SignaturesPerSet()};
    }
  }
  if (!best) {
    return Status::NotFound(
        "no valid PartEnum setting within the signature budget for k=" +
        std::to_string(k));
  }
  return *best;
}

Result<LshChoice> ChooseLshParams(const SetCollection& input, double gamma,
                                  double delta, uint32_t max_g,
                                  size_t target_input_size,
                                  const AdvisorOptions& options) {
  Search search(input, target_input_size, "lsh", options);
  std::optional<LshChoice> best;
  for (uint32_t g = 1; g <= max_g; ++g) {
    LshParams params = LshParams::ForAccuracy(gamma, delta, g, options.seed);
    if (params.l > options.max_signatures_per_set) continue;
    auto scheme = LshScheme::Create(params);
    if (!scheme.ok()) continue;
    if (search.Offer(*scheme, LshLabel(params), params.l)) {
      best = LshChoice{params, search.best_f2()};
    }
  }
  if (!best) {
    return Status::NotFound("no valid LSH setting within the budget");
  }
  return *best;
}

Result<GuardedPartEnumResult> PartEnumJaccardSelfJoinWithRetry(
    const SetCollection& input, const PartEnumJaccardParams& params,
    ExecutionGuard& guard, const JoinOptions& options,
    const AdvisorOptions& advisor) {
  GuardedPartEnumResult out;
  JoinOptions guarded = options;
  guarded.guard = &guard;

  SSJOIN_ASSIGN_OR_RETURN(auto scheme,
                          PartEnumJaccardScheme::Create(params));
  JaccardPredicate predicate(params.gamma);
  out.join = Join(SelfJoinRequest(input, scheme, predicate, guarded));
  if (out.join.status.ok() ||
      guard.trip_reason() !=
          ExecutionGuard::TripReason::kCandidateExplosion) {
    return out;
  }

  // The breaker fired: the (n1, n2) shape filters too weakly for this
  // input. Re-tune on a sample and retry once with the advisor's choice.
  uint32_t avg =
      static_cast<uint32_t>(input.average_set_size() + 0.5);
  uint32_t k = PartEnumJaccardScheme::EquisizedHammingThreshold(
      std::max(1u, avg), params.gamma);
  Result<PartEnumChoice> choice =
      ChoosePartEnumParams(input, k, input.size(), advisor);
  if (!choice.ok()) return out;  // No safer shape known; keep the trip.

  PartEnumJaccardParams tuned_params = params;
  PartEnumParams tuned = choice->params;
  tuned_params.chooser = [tuned](uint32_t threshold) {
    PartEnumParams p = tuned;
    p.k = threshold;
    return p;
  };
  SSJOIN_ASSIGN_OR_RETURN(auto retry_scheme,
                          PartEnumJaccardScheme::Create(tuned_params));
  guard.Reset();
  out.retried = true;
  out.retry_params = tuned;
  out.join = Join(SelfJoinRequest(input, retry_scheme, predicate, guarded));
  return out;
}

}  // namespace ssjoin
