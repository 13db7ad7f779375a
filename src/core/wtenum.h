// WtEnum: the paper's heuristic signature scheme for weighted SSJoins
// (Section 7, Figure 8).
//
// For an intersection SSJoin (w(r ∩ s) >= T), WtEnum conceptually
// enumerates every *minimal* subset s' of s with weighted size >= T
// (minimal: no proper subset reaches T, equivalently
// T <= w(s') < T + min_e w(e)), orders each s' by descending IDF weight,
// and emits the smallest prefix whose IDF weights sum to at least the
// pruning threshold TH (the whole s' if it never reaches TH). Two sets
// with w(r ∩ s) >= T share a minimal subset of their intersection —
// minimality is intrinsic to the subset — hence share its prefix.
//
// Implementation notes:
//   - We never materialize the minimal subsets. A DFS over the elements in
//     descending IDF order builds prefixes incrementally; once a branch's
//     prefix is frozen (IDF sum reached TH), every minimal subset in that
//     subtree yields the same prefix, so the subtree collapses to a single
//     existence check ("can the chosen prefix extend to a minimal
//     subset?"), answered greedily (provably correct when the ordering
//     weights equal the size weights, i.e. the IDF case) with a bounded
//     recursive fallback otherwise. This is what keeps the signature count
//     small "in practice" as the paper observes — and keeps generation
//     time proportional to the number of *distinct* prefixes.
//   - TH defaults to log(max(|R|, |S|)): a subset that heavy occurs in one
//     input set in expectation (Section 7), so prefixes rarely collide.
//   - Weighted-jaccard SSJoins reduce to intersection SSJoins via the
//     Section 5 machinery over *weighted* sizes: geometric size intervals
//     I_i = [b_i, b_{i+1}) with b_{i+1} = b_i / gamma, per-instance
//     thresholds T_i = 2 gamma/(1+gamma) b_{i-1}, and interval tags on the
//     signatures.
//   - Generate weighs each element once per set: one prepared entry array
//     (element, Mix64(element), size weight, order weight, suffix sum of
//     size weights), sorted once, serves both jaccard-mode instances
//     (tags i+1 and i+2) or the single overlap-mode instance. The weighted
//     size is summed from the same size weights in set order, i.e. the
//     additions WeightedSize makes, so interval indexes are unchanged.
//   - There is no per-instance dedup set. Each emission ends the DFS
//     branch that made it, so two emissions differ in at least one
//     included element and their prefix hashes agree only on a 64-bit
//     collision — the same event that can already merge signatures across
//     the two tags. GenerateSorted deduplicates before any stage runs.
//   - Enumeration is budgeted (`max_nodes_per_set`, per set per tag: each
//     instance starts with the full budget). Exceeding the budget
//     (pathological weight distributions only; see DESIGN.md) sets
//     overflowed() and may lose completeness for the offending set; call
//     Validate() to pre-check a collection and get a Status instead.

#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/signature_scheme.h"
#include "core/weighted.h"
#include "util/hashing.h"
#include "util/status.h"

namespace ssjoin {

struct WtEnumParams {
  /// Pruning threshold TH (Figure 8). Use
  /// IdfWeights::DefaultPruningThreshold() unless tuning.
  double pruning_threshold = 0;
  uint64_t seed = 0x9E3779B9;
  /// DFS node budget per set per tag (safety valve; see header comment).
  uint64_t max_nodes_per_set = 1 << 20;
};

/// \brief WtEnum signature scheme (intersection and weighted-jaccard
/// modes).
class WtEnumScheme final : public SignatureScheme {
 public:
  /// Intersection mode: covers pairs with w(r ∩ s) >= threshold.
  /// `size_weights` are the weights defining the predicate (Figure 8
  /// step 2); `order_weights` are the IDF weights used for ordering and TH
  /// accounting (step 3). Pass the same function twice when the predicate
  /// weights are themselves IDF (the common case).
  static Result<WtEnumScheme> CreateOverlap(WeightFunction size_weights,
                                            WeightFunction order_weights,
                                            double threshold,
                                            const WtEnumParams& params);

  /// Weighted-jaccard mode: covers pairs with weighted jaccard >= gamma.
  /// `min_weighted_size` must be a positive lower bound on the weighted
  /// size of every nonempty input set (anchors the size intervals).
  static Result<WtEnumScheme> CreateJaccard(WeightFunction size_weights,
                                            WeightFunction order_weights,
                                            double gamma,
                                            double min_weighted_size,
                                            const WtEnumParams& params);

  std::string Name() const override;

  void Generate(std::span<const ElementId> set,
                std::vector<Signature>* out) const override;

  /// Dry-runs generation over `input` and fails if any set exhausts the
  /// enumeration budget (in which case Generate would be incomplete for
  /// it). Suggested before joining unfamiliar data.
  Status Validate(const SetCollection& input) const;

  /// True if any Generate call so far exhausted its budget.
  bool overflowed() const { return overflowed_; }

  /// The weighted-size interval index used in jaccard mode (exposed for
  /// tests). Requires weighted_size >= min_weighted_size.
  uint32_t IntervalIndex(double weighted_size) const;

 private:
  WtEnumScheme() = default;

  WeightFunction size_weights_;
  WeightFunction order_weights_;
  WtEnumParams params_;
  // Hasher state after folding the seed, computed once at Create time:
  // each (set, threshold) instance copies this instead of re-running
  // the constructor's Mix64 chain (value-exact hoist; the per-element
  // mixes are likewise precomputed into Entry::mixed_element).
  SequenceHasher seeded_root_{0};
  bool jaccard_mode_ = false;
  double threshold_ = 0;  // overlap mode
  double gamma_ = 0;      // jaccard mode
  double base_size_ = 0;  // jaccard mode: b_0 = min weighted size
  double growth_ = 0;     // jaccard mode: interval growth factor ~ 1/gamma
  // Atomic because Generate may run concurrently across join worker
  // threads (JoinOptions::num_threads > 1); relaxed ordering suffices for
  // a sticky diagnostic flag. Copy/move load the current value so the
  // scheme stays movable (it travels through Result<WtEnumScheme>).
  struct RelaxedFlag {
    std::atomic<bool> value{false};
    RelaxedFlag() = default;
    RelaxedFlag(const RelaxedFlag& other)
        : value(other.value.load(std::memory_order_relaxed)) {}
    RelaxedFlag& operator=(const RelaxedFlag& other) {
      value.store(other.value.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      return *this;
    }
    RelaxedFlag& operator=(bool b) {
      value.store(b, std::memory_order_relaxed);
      return *this;
    }
    operator bool() const { return value.load(std::memory_order_relaxed); }
  };
  mutable RelaxedFlag overflowed_;
};

}  // namespace ssjoin
