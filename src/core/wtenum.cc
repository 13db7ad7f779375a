#include "core/wtenum.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <sstream>

#include "util/check.h"
#include "util/hashing.h"

namespace ssjoin {

namespace {

constexpr Signature kEmptySetSignature = 0x37E4'0000'E317'70ADULL;
constexpr double kEps = 1e-9;

// One element of the set under enumeration, with both weight systems.
// Generate prepares one array of these per set and shares it between the
// set's (threshold, tag) instances.
struct Entry {
  ElementId element;
  uint64_t mixed_element;  // Mix64(element), computed once per set
  double size_weight;   // defines the predicate threshold T (step 2)
  double order_weight;  // IDF weight: ordering and TH accounting (step 3)
  double suffix_size_weight;  // sum of size_weight from this entry on
};

// DFS context for one (set, threshold) instance.
struct Enumeration {
  std::span<const Entry> entries;
  double threshold;          // T
  double pruning_threshold;  // TH
  uint64_t budget;
  bool overflowed = false;
  std::vector<Signature>* out;

  // No dedup is needed: every emission ends the include-branch it is
  // made on, so two emissions sit at different nodes of the
  // include/exclude tree and their prefixes differ in at least one
  // included element. Equal signatures therefore mean a 64-bit hash
  // collision, which the two tags of a set could produce just the same;
  // GenerateSorted deduplicates before any stage sees the output.
  void Emit(Signature sig) { out->push_back(sig); }

  // Does any X ⊆ entries[idx..] complete `chosen` (with total size weight
  // `sum` < T and minimum size weight `min_w`) to a minimal subset?
  // Greedy in descending size weight is exact when size weights are
  // ordered like the processing order (the IDF case); otherwise fall back
  // to a budgeted exhaustive check.
  bool ExistsMinimalCompletion(size_t idx, double sum, double min_w) {
    // Greedy: add remaining elements in processing order (descending
    // order_weight, which equals descending size_weight in the IDF case).
    double greedy_sum = sum;
    double greedy_min = min_w;
    for (size_t i = idx; i < entries.size(); ++i) {
      greedy_sum += entries[i].size_weight;
      greedy_min = std::min(greedy_min, entries[i].size_weight);
      if (greedy_sum >= threshold) {
        if (greedy_sum - greedy_min < threshold) return true;
        break;  // greedy result not minimal; fall through to search
      }
    }
    // idx == entries.size() leaves nothing to add, and sum < T here.
    if (idx == entries.size() ||
        sum + entries[idx].suffix_size_weight < threshold) {
      return false;
    }
    // Exhaustive fallback (rare; only when weight systems disagree).
    return SearchCompletion(idx, sum, min_w);
  }

  bool SearchCompletion(size_t idx, double sum, double min_w) {
    if (budget == 0) {
      overflowed = true;
      return true;  // claim existence: emitting extra prefixes is safe
    }
    --budget;
    if (idx >= entries.size()) return false;
    if (sum + entries[idx].suffix_size_weight < threshold) return false;
    // Include entries[idx].
    double new_sum = sum + entries[idx].size_weight;
    double new_min = std::min(min_w, entries[idx].size_weight);
    if (new_sum >= threshold) {
      if (new_sum - new_min < threshold) return true;
      // Crossing but non-minimal; a subset without some element crosses
      // too and is explored via the exclude branch.
    } else if (SearchCompletion(idx + 1, new_sum, new_min)) {
      return true;
    }
    // Exclude entries[idx].
    return SearchCompletion(idx + 1, sum, min_w);
  }

  // Main DFS. `prefix_hasher` carries the prefix built so far; `idf_sum`
  // its accumulated order weight; `frozen` whether TH was reached.
  void Dfs(size_t idx, double sum, double min_w, double idf_sum,
           SequenceHasher prefix_hasher) {
    if (budget == 0) {
      overflowed = true;
      return;
    }
    --budget;
    if (idx >= entries.size()) return;  // sum < T here, dead end
    if (sum + entries[idx].suffix_size_weight < threshold) {
      return;  // unreachable
    }

    // Branch 1: include entries[idx].
    {
      double new_sum = sum + entries[idx].size_weight;
      double new_min = std::min(min_w, entries[idx].size_weight);
      double new_idf = idf_sum + entries[idx].order_weight;
      // Fold the precomputed Mix64 — the DFS revisits each element once
      // per prefix, and the old per-visit Add() re-mixed it every time.
      SequenceHasher new_hasher = prefix_hasher;
      new_hasher.AddMixed(entries[idx].mixed_element);
      if (new_sum >= threshold) {
        // `chosen ∪ {idx}` crossed T: it is a candidate minimal subset.
        // Supersets are non-minimal, so the branch ends here either way.
        if (new_sum - new_min < threshold) {
          // Minimal. Its prefix: we only reach this point with an
          // unfrozen prefix, so the prefix is the whole chosen set —
          // whether TH was just reached or never (Figure 8 takes the
          // whole s' when its IDF weight stays below TH).
          Emit(new_hasher.Finish());
        }
      } else if (new_idf >= pruning_threshold) {
        // Prefix frozen below T: every minimal subset in this subtree has
        // this exact prefix, so emit once if any completion exists.
        if (ExistsMinimalCompletion(idx + 1, new_sum, new_min)) {
          Emit(new_hasher.Finish());
        }
      } else {
        Dfs(idx + 1, new_sum, new_min, new_idf, new_hasher);
      }
    }
    // Branch 2: exclude entries[idx].
    Dfs(idx + 1, sum, min_w, idf_sum, prefix_hasher);
  }
};

// Enumerates the prefixes of one (threshold, tag) instance over the
// prepared entries, starting from `root` (the seeded hasher with the tag
// folded in). Returns false if the instance exhausted its node budget.
bool EnumerateForThreshold(std::span<const Entry> entries, double threshold,
                           const WtEnumParams& params, SequenceHasher root,
                           std::vector<Signature>* out) {
  Enumeration enumeration{entries,
                          threshold * (1.0 - kEps),
                          params.pruning_threshold,
                          params.max_nodes_per_set,
                          false,
                          out};
  enumeration.Dfs(0, 0.0, std::numeric_limits<double>::infinity(), 0.0, root);
  return !enumeration.overflowed;
}

}  // namespace

Result<WtEnumScheme> WtEnumScheme::CreateOverlap(WeightFunction size_weights,
                                                 WeightFunction order_weights,
                                                 double threshold,
                                                 const WtEnumParams& params) {
  if (!size_weights || !order_weights) {
    return Status::InvalidArgument("WtEnum: weight function is null");
  }
  if (threshold <= 0) {
    return Status::InvalidArgument("WtEnum: threshold must be positive");
  }
  if (params.pruning_threshold <= 0) {
    return Status::InvalidArgument(
        "WtEnum: pruning_threshold must be positive (use "
        "IdfWeights::DefaultPruningThreshold())");
  }
  WtEnumScheme scheme;
  scheme.size_weights_ = std::move(size_weights);
  scheme.order_weights_ = std::move(order_weights);
  scheme.params_ = params;
  scheme.seeded_root_ = SequenceHasher(params.seed);
  scheme.jaccard_mode_ = false;
  scheme.threshold_ = threshold;
  return scheme;
}

Result<WtEnumScheme> WtEnumScheme::CreateJaccard(WeightFunction size_weights,
                                                 WeightFunction order_weights,
                                                 double gamma,
                                                 double min_weighted_size,
                                                 const WtEnumParams& params) {
  if (!size_weights || !order_weights) {
    return Status::InvalidArgument("WtEnum: weight function is null");
  }
  if (!(gamma > 0 && gamma <= 1)) {
    return Status::InvalidArgument("WtEnum: gamma must be in (0,1]");
  }
  if (!(min_weighted_size > 0)) {
    return Status::InvalidArgument(
        "WtEnum: min_weighted_size must be positive");
  }
  if (params.pruning_threshold <= 0) {
    return Status::InvalidArgument(
        "WtEnum: pruning_threshold must be positive");
  }
  WtEnumScheme scheme;
  scheme.size_weights_ = std::move(size_weights);
  scheme.order_weights_ = std::move(order_weights);
  scheme.params_ = params;
  scheme.seeded_root_ = SequenceHasher(params.seed);
  scheme.jaccard_mode_ = true;
  scheme.gamma_ = gamma;
  scheme.base_size_ = min_weighted_size * (1.0 - kEps);
  // Slightly inflated growth so float rounding in weighted sizes can only
  // widen intervals (completeness over selectivity at the boundaries).
  scheme.growth_ = (1.0 / gamma) * (1.0 + kEps);
  return scheme;
}

std::string WtEnumScheme::Name() const {
  std::ostringstream os;
  if (jaccard_mode_) {
    os << "WEN(wjaccard>=" << gamma_ << ")";
  } else {
    os << "WEN(woverlap>=" << threshold_ << ")";
  }
  return os.str();
}

uint32_t WtEnumScheme::IntervalIndex(double weighted_size) const {
  SSJOIN_DCHECK(jaccard_mode_,
                "size intervals only exist for the jaccard reduction");
  SSJOIN_CHECK(weighted_size >= base_size_,
               "weighted size {} below the declared minimum {}; "
               "CreateJaccard was given a wrong min_weighted_size",
               weighted_size, base_size_);
  // index = max{ j >= 0 : base * growth^j <= ws }, computed by repeated
  // multiplication so neighbouring sets agree exactly on boundaries.
  uint32_t index = 0;
  double boundary = base_size_ * growth_;
  while (boundary <= weighted_size) {
    ++index;
    boundary *= growth_;
  }
  return index;
}

void WtEnumScheme::Generate(std::span<const ElementId> set,
                            std::vector<Signature>* out) const {
  if (set.empty()) {
    if (jaccard_mode_) out->push_back(kEmptySetSignature);
    return;  // empty sets cannot reach a positive overlap threshold
  }
  // One weighing pass. The weighted size adds the size weights in set
  // order, the same additions WeightedSize makes, so the interval index
  // (and with it the tags) is unchanged.
  std::vector<Entry> entries;
  entries.reserve(set.size());
  double weighted_size = 0;
  for (ElementId e : set) {
    double size_weight = size_weights_(e);
    weighted_size += size_weight;
    entries.push_back(
        Entry{e, Mix64(e), size_weight, order_weights_(e), 0.0});
  }
  // Descending IDF (order weight); ties by element id for determinism.
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    if (a.order_weight != b.order_weight) {
      return a.order_weight > b.order_weight;
    }
    return a.element < b.element;
  });
  for (size_t i = 0; i + 1 < entries.size(); ++i) {
    SSJOIN_DCHECK(entries[i].order_weight > entries[i + 1].order_weight ||
                      (entries[i].order_weight == entries[i + 1].order_weight &&
                       entries[i].element < entries[i + 1].element),
                  "enumeration order violated at position {}", i);
  }
  double suffix = 0.0;
  for (size_t i = entries.size(); i > 0; --i) {
    SSJOIN_CHECK(entries[i - 1].size_weight > 0,
                 "element {} has non-positive size weight {}; WtEnum's "
                 "minimal-subset enumeration requires positive weights",
                 entries[i - 1].element, entries[i - 1].size_weight);
    suffix += entries[i - 1].size_weight;
    entries[i - 1].suffix_size_weight = suffix;
  }

  auto enumerate = [&](double threshold, uint64_t tag) {
    // Copy the seeded state hoisted at Create time instead of re-running
    // the seed mix per (set, threshold) instance (wtenum.h note).
    SequenceHasher root = seeded_root_;
    root.Add(tag);
    if (!EnumerateForThreshold(entries, threshold, params_, root, out)) {
      overflowed_ = true;
      std::fprintf(stderr,
                   "[WARN wtenum.cc] WtEnum enumeration budget exhausted "
                   "for a set of %zu elements; results may miss pairs "
                   "involving it\n",
                   set.size());
    }
  };
  if (!jaccard_mode_) {
    enumerate(threshold_, /*tag=*/0);
    return;
  }
  uint32_t i = IntervalIndex(weighted_size);
  for (uint32_t tag : {i, i + 1}) {
    // Instance `tag` covers weighted sizes in I_{tag-1} ∪ I_tag; the
    // smallest possible pair sum is 2 * b_{tag-1}.
    double floor_size =
        base_size_ * std::pow(growth_, tag > 0 ? tag - 1 : 0);
    double instance_threshold =
        2.0 * gamma_ / (1.0 + gamma_) * floor_size;
    // A non-positive threshold would make every subset "minimal" and the
    // scheme degenerate to quadratic enumeration — always a caller bug
    // (min_weighted_size or gamma was zero/negative through rounding).
    SSJOIN_CHECK(instance_threshold > 0,
                 "instance threshold {} for tag {} not positive "
                 "(gamma={}, min weighted size={})",
                 instance_threshold, tag, gamma_, base_size_);
    enumerate(instance_threshold, tag + 1);
  }
}

Status WtEnumScheme::Validate(const SetCollection& input) const {
  bool saved = overflowed_;
  overflowed_ = false;
  std::vector<Signature> scratch;
  for (SetId id = 0; id < input.size(); ++id) {
    scratch.clear();
    Generate(input.set(id), &scratch);
    if (overflowed_) {
      overflowed_ = saved;
      return Status::OutOfRange(
          "WtEnum: enumeration budget exhausted for set " +
          std::to_string(id) + " (" + std::to_string(input.set_size(id)) +
          " elements); lower pruning_threshold or raise max_nodes_per_set");
    }
  }
  overflowed_ = saved;
  return Status::OK();
}

}  // namespace ssjoin
