#include "core/parameter_advisor.h"

#include <algorithm>
#include <cmath>

#include "obs/explain.h"
#include "util/ams_sketch.h"
#include "util/check.h"

namespace ssjoin {

namespace {

// Sample-signature statistics: total count S and pairwise collision count
// C = sum_v C(c_v, 2) over signature values v.
struct SampleStats {
  uint64_t signatures = 0;
  double collisions = 0;
};

SampleStats ComputeSampleStats(const SetCollection& sample,
                               const SignatureScheme& scheme,
                               const AdvisorOptions& options) {
  SampleStats stats;
  std::vector<Signature> all;
  std::vector<Signature> scratch;
  AmsSketch sketch(16, 5, options.seed);
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
  } else {
    std::sort(all.begin(), all.end());
    size_t i = 0;
    while (i < all.size()) {
      size_t j = i;
      while (j < all.size() && all[j] == all[i]) ++j;
      double c = static_cast<double>(j - i);
      stats.collisions += c * (c - 1) / 2.0;
      i = j;
    }
  }
  return stats;
}

double Extrapolate(const SampleStats& stats, size_t sample_size,
                   size_t target_size) {
  if (sample_size == 0) return 0;
  double scale = static_cast<double>(target_size) /
                 static_cast<double>(sample_size);
  // Self-join intermediate-result size (Section 3.2, matching JoinStats):
  // 2 * sum|Sign| + collisions, with the signature term scaling linearly
  // and the pairwise collision term quadratically.
  return 2.0 * static_cast<double>(stats.signatures) * scale +
         stats.collisions * scale * scale;
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

// Fills the search-wide trace header. Candidates are appended by the
// Evaluate loops so repeated searches accumulate.
void BeginTrace(obs::AdvisorTrace* trace, std::string_view method,
                size_t sample_size, size_t target_input_size,
                const AdvisorOptions& options) {
  if (trace == nullptr) return;
  trace->method = std::string(method);
  trace->sample_size = sample_size;
  trace->target_input_size = target_input_size;
  trace->used_ams_sketch = options.use_ams_sketch;
}

// Appends one scored setting. The extrapolations mirror Extrapolate():
// signatures scale linearly with target/sample, collisions
// quadratically, and their sum is the estimated F2 that ranked the
// setting.
void TraceCandidate(obs::AdvisorTrace* trace, std::string label,
                    uint64_t signatures_per_set, const SampleStats& stats,
                    size_t sample_size, size_t target_size,
                    double estimated_f2) {
  if (trace == nullptr) return;
  double scale = sample_size == 0
                     ? 0.0
                     : static_cast<double>(target_size) /
                           static_cast<double>(sample_size);
  obs::AdvisorCandidate candidate;
  candidate.label = std::move(label);
  candidate.signatures_per_set = signatures_per_set;
  candidate.sample_signatures = stats.signatures;
  candidate.sample_collisions = stats.collisions;
  candidate.predicted_signatures =
      2.0 * static_cast<double>(stats.signatures) * scale;
  candidate.predicted_collisions = stats.collisions * scale * scale;
  candidate.predicted_f2 = estimated_f2;
  trace->candidates.push_back(std::move(candidate));
}

// Marks the winning row among the candidates appended after
// `first_candidate` (a Choose* call may share the trace with earlier
// searches whose rows must keep their own chosen flags).
void MarkChosen(obs::AdvisorTrace* trace, size_t first_candidate,
                std::string_view label) {
  if (trace == nullptr) return;
  for (size_t i = first_candidate; i < trace->candidates.size(); ++i) {
    if (trace->candidates[i].label == label) {
      trace->candidates[i].chosen = true;
      return;
    }
  }
}

}  // namespace

double EstimateSchemeF2(const SetCollection& input,
                        const SignatureScheme& scheme,
                        size_t target_input_size,
                        const AdvisorOptions& options) {
  if (target_input_size == 0) target_input_size = input.size();
  SetCollection sample = input.Sample(options.sample_size, options.seed);
  SampleStats stats = ComputeSampleStats(sample, scheme, options);
  return Extrapolate(stats, sample.size(), target_input_size);
}

std::vector<PartEnumChoice> EvaluatePartEnumParams(
    const SetCollection& input, uint32_t k, size_t target_input_size,
    const AdvisorOptions& options) {
  if (target_input_size == 0) target_input_size = input.size();
  SetCollection sample = input.Sample(options.sample_size, options.seed);
  BeginTrace(options.trace, "partenum", sample.size(), target_input_size,
             options);
  std::vector<PartEnumChoice> choices;
  for (const PartEnumParams& params : PartEnumParams::EnumerateValid(
           k, options.max_signatures_per_set, options.seed)) {
    auto scheme = PartEnumScheme::Create(params);
    if (!scheme.ok()) continue;
    SampleStats stats = ComputeSampleStats(sample, *scheme, options);
    PartEnumChoice choice;
    choice.params = params;
    choice.signatures_per_set = params.SignaturesPerSet();
    choice.estimated_f2 =
        Extrapolate(stats, sample.size(), target_input_size);
    choices.push_back(choice);
    TraceCandidate(options.trace, PartEnumLabel(params),
                   choice.signatures_per_set, stats, sample.size(),
                   target_input_size, choice.estimated_f2);
  }
  std::sort(choices.begin(), choices.end(),
            [](const PartEnumChoice& a, const PartEnumChoice& b) {
              // Ties (common when the sample shows no collisions) go to
              // the cheaper configuration.
              if (a.estimated_f2 != b.estimated_f2) {
                return a.estimated_f2 < b.estimated_f2;
              }
              return a.signatures_per_set < b.signatures_per_set;
            });
  return choices;
}

Result<PartEnumChoice> ChoosePartEnumParams(const SetCollection& input,
                                            uint32_t k,
                                            size_t target_input_size,
                                            const AdvisorOptions& options) {
  size_t first_candidate =
      options.trace != nullptr ? options.trace->candidates.size() : 0;
  std::vector<PartEnumChoice> choices =
      EvaluatePartEnumParams(input, k, target_input_size, options);
  if (choices.empty()) {
    return Status::NotFound(
        "no valid PartEnum setting within the signature budget for k=" +
        std::to_string(k));
  }
  MarkChosen(options.trace, first_candidate,
             PartEnumLabel(choices.front().params));
  return choices.front();
}

std::vector<LshChoice> EvaluateLshParams(const SetCollection& input,
                                         double gamma, double delta,
                                         uint32_t max_g,
                                         size_t target_input_size,
                                         const AdvisorOptions& options) {
  if (target_input_size == 0) target_input_size = input.size();
  SetCollection sample = input.Sample(options.sample_size, options.seed);
  BeginTrace(options.trace, "lsh", sample.size(), target_input_size,
             options);
  std::vector<LshChoice> choices;
  for (uint32_t g = 1; g <= max_g; ++g) {
    LshParams params = LshParams::ForAccuracy(gamma, delta, g, options.seed);
    if (params.l > options.max_signatures_per_set) continue;
    auto scheme = LshScheme::Create(params);
    if (!scheme.ok()) continue;
    SampleStats stats = ComputeSampleStats(sample, *scheme, options);
    LshChoice choice;
    choice.params = params;
    choice.estimated_f2 =
        Extrapolate(stats, sample.size(), target_input_size);
    choices.push_back(choice);
    TraceCandidate(options.trace, LshLabel(params), params.l, stats,
                   sample.size(), target_input_size, choice.estimated_f2);
  }
  std::sort(choices.begin(), choices.end(),
            [](const LshChoice& a, const LshChoice& b) {
              if (a.estimated_f2 != b.estimated_f2) {
                return a.estimated_f2 < b.estimated_f2;
              }
              return a.params.l < b.params.l;
            });
  return choices;
}

Result<LshChoice> ChooseLshParams(const SetCollection& input, double gamma,
                                  double delta, uint32_t max_g,
                                  size_t target_input_size,
                                  const AdvisorOptions& options) {
  size_t first_candidate =
      options.trace != nullptr ? options.trace->candidates.size() : 0;
  std::vector<LshChoice> choices = EvaluateLshParams(
      input, gamma, delta, max_g, target_input_size, options);
  if (choices.empty()) {
    return Status::NotFound("no valid LSH setting within the budget");
  }
  MarkChosen(options.trace, first_candidate,
             LshLabel(choices.front().params));
  return choices.front();
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
