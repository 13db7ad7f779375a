#include "baselines/probe_count.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "util/check.h"
#include "util/timer.h"

namespace ssjoin {

namespace {

using PostingsIndex = std::unordered_map<ElementId, std::vector<SetId>>;

// Per-size caches of the joinable-size range and the per-probe overlap
// threshold t = max(1, ceil(min required overlap)).
struct SizeCaches {
  std::vector<std::optional<SizeRange>> joinable;
  std::vector<uint32_t> threshold;  // 0 encodes "joins nothing"

  SizeCaches(const Predicate& predicate, uint32_t max_size) {
    joinable.resize(max_size + 1);
    threshold.resize(max_size + 1, 0);
    for (uint32_t size = 0; size <= max_size; ++size) {
      joinable[size] = predicate.JoinableSizes(size, max_size);
      double t = MinRequiredOverlapForSize(predicate, size, max_size);
      if (std::isinf(t)) continue;
      threshold[size] = static_cast<uint32_t>(
          std::max(1.0, std::ceil(t - 1e-9)));
    }
  }
};

bool SizeCompatible(const SizeCaches& caches, bool enabled, uint32_t probe,
                    uint32_t partner) {
  if (!enabled) return true;
  const std::optional<SizeRange>& range = caches.joinable[probe];
  return range && range->Contains(partner);
}

}  // namespace

JoinResult PairCountSelfJoin(const SetCollection& input,
                             const Predicate& predicate,
                             const InvertedIndexJoinOptions& options) {
  JoinResult result;
  SizeCaches caches(predicate, input.max_set_size());

  PostingsIndex index;
  std::unordered_map<SetId, uint32_t> counter;
  for (SetId s = 0; s < input.size(); ++s) {
    std::span<const ElementId> probe = input.set(s);
    {
      Stopwatch watch;
      counter.clear();
      for (ElementId e : probe) {
        auto it = index.find(e);
        if (it == index.end()) continue;
        for (SetId r : it->second) ++counter[r];
      }
      result.stats.signature_collisions += [&] {
        uint64_t total = 0;
        for (const auto& [_, c] : counter) total += c;
        return total;
      }();
      result.stats.candidates += counter.size();
      result.stats.candpair_seconds += watch.ElapsedSeconds();
    }
    {
      Stopwatch watch;
      for (const auto& [r, count] : counter) {
        SSJOIN_DCHECK(count <= probe.size() && count <= input.set_size(r),
                      "overlap count {} exceeds set sizes ({}, {})", count,
                      probe.size(), input.set_size(r));
        if (!SizeCompatible(caches, options.size_filter,
                            static_cast<uint32_t>(probe.size()),
                            input.set_size(r))) {
          ++result.stats.false_positives;
          continue;
        }
        if (predicate.Matches(input.set_size(r),
                              static_cast<uint32_t>(probe.size()), count)) {
          result.pairs.emplace_back(r, s);
          ++result.stats.results;
        } else {
          ++result.stats.false_positives;
        }
      }
      result.stats.postfilter_seconds += watch.ElapsedSeconds();
    }
    {
      // Index construction interleaves with probing; account it as the
      // signature-generation phase (identity signatures = the elements).
      Stopwatch watch;
      for (ElementId e : probe) index[e].push_back(s);
      result.stats.signatures_r += probe.size();
      result.stats.siggen_seconds += watch.ElapsedSeconds();
    }
  }
  result.stats.signatures_s = result.stats.signatures_r;
  std::sort(result.pairs.begin(), result.pairs.end());
  return result;
}

JoinResult ProbeCountSelfJoin(const SetCollection& input,
                              const Predicate& predicate,
                              const InvertedIndexJoinOptions& options) {
  JoinResult result;
  SizeCaches caches(predicate, input.max_set_size());

  PostingsIndex index;
  std::unordered_map<SetId, uint32_t> counter;
  for (SetId s = 0; s < input.size(); ++s) {
    std::span<const ElementId> probe = input.set(s);
    uint32_t probe_size = static_cast<uint32_t>(probe.size());
    uint32_t t = probe_size < caches.threshold.size()
                     ? caches.threshold[probe_size]
                     : 0;
    if (t > 0) {
      // Gather this probe's postings lists, shortest-first; the t-1
      // longest lists are only binary-searched (MergeOpt of [22]).
      std::vector<const std::vector<SetId>*> lists;
      size_t num_short = 0;
      bool feasible = false;
      {
        Stopwatch watch;
        lists.reserve(probe.size());
        for (ElementId e : probe) {
          auto it = index.find(e);
          if (it != index.end() && !it->second.empty()) {
            lists.push_back(&it->second);
          }
        }
        // lists.size() < t: no earlier set can reach the threshold overlap.
        feasible = lists.size() >= t;
        if (feasible) {
          std::sort(lists.begin(), lists.end(),
                    [](const auto* a, const auto* b) {
                      return a->size() < b->size();
                    });
          num_short = lists.size() - (t - 1);
          counter.clear();
          for (size_t i = 0; i < num_short; ++i) {
            for (SetId r : *lists[i]) ++counter[r];
            result.stats.signature_collisions += lists[i]->size();
          }
          result.stats.candidates += counter.size();
        }
        result.stats.candpair_seconds += watch.ElapsedSeconds();
      }
      if (feasible) {
        Stopwatch watch;
        for (const auto& [r, count_short] : counter) {
          if (!SizeCompatible(caches, options.size_filter, probe_size,
                              input.set_size(r))) {
            ++result.stats.false_positives;
            continue;
          }
          uint32_t count = count_short;
          SSJOIN_DCHECK(count_short <= probe_size,
                        "short-list overlap {} exceeds probe size {}",
                        count_short, probe_size);
          for (size_t i = num_short; i < lists.size(); ++i) {
            count += std::binary_search(lists[i]->begin(), lists[i]->end(),
                                        r)
                         ? 1
                         : 0;
          }
          if (predicate.Matches(input.set_size(r), probe_size, count)) {
            result.pairs.emplace_back(r, s);
            ++result.stats.results;
          } else {
            ++result.stats.false_positives;
          }
        }
        result.stats.postfilter_seconds += watch.ElapsedSeconds();
      }
    }
    {
      Stopwatch watch;
      for (ElementId e : probe) index[e].push_back(s);
      result.stats.signatures_r += probe.size();
      result.stats.siggen_seconds += watch.ElapsedSeconds();
    }
  }
  result.stats.signatures_s = result.stats.signatures_r;
  std::sort(result.pairs.begin(), result.pairs.end());
  return result;
}

JoinResult PairCountJoin(const SetCollection& r, const SetCollection& s,
                         const Predicate& predicate,
                         const InvertedIndexJoinOptions& options) {
  JoinResult result;
  uint32_t max_size = std::max(r.max_set_size(), s.max_set_size());
  SizeCaches caches(predicate, max_size);

  PostingsIndex index;
  {
    Stopwatch watch;
    for (SetId id = 0; id < r.size(); ++id) {
      for (ElementId e : r.set(id)) index[e].push_back(id);
      result.stats.signatures_r += r.set_size(id);
    }
    result.stats.siggen_seconds += watch.ElapsedSeconds();
  }

  std::unordered_map<SetId, uint32_t> counter;
  for (SetId sid = 0; sid < s.size(); ++sid) {
    std::span<const ElementId> probe = s.set(sid);
    {
      Stopwatch watch;
      counter.clear();
      for (ElementId e : probe) {
        auto it = index.find(e);
        if (it == index.end()) continue;
        for (SetId rid : it->second) ++counter[rid];
      }
      for (const auto& [_, c] : counter) {
        result.stats.signature_collisions += c;
      }
      result.stats.candidates += counter.size();
      result.stats.signatures_s += probe.size();
      result.stats.candpair_seconds += watch.ElapsedSeconds();
    }
    {
      Stopwatch watch;
      for (const auto& [rid, count] : counter) {
        SSJOIN_DCHECK(count <= probe.size() && count <= r.set_size(rid),
                      "overlap count {} exceeds set sizes ({}, {})", count,
                      probe.size(), r.set_size(rid));
        if (!SizeCompatible(caches, options.size_filter,
                            static_cast<uint32_t>(probe.size()),
                            r.set_size(rid))) {
          ++result.stats.false_positives;
          continue;
        }
        if (predicate.Matches(r.set_size(rid),
                              static_cast<uint32_t>(probe.size()), count)) {
          result.pairs.emplace_back(rid, sid);
          ++result.stats.results;
        } else {
          ++result.stats.false_positives;
        }
      }
      result.stats.postfilter_seconds += watch.ElapsedSeconds();
    }
  }
  std::sort(result.pairs.begin(), result.pairs.end());
  return result;
}

}  // namespace ssjoin
