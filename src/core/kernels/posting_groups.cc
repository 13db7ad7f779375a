#include "core/kernels/posting_groups.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/check.h"
#include "util/hashing.h"

namespace ssjoin::kernels {
namespace {

// Target postings per grouping bucket: a sorted bucket stays in L1.
constexpr uint64_t kPostingsPerBucket = 512;

// Target occurrences per dedup bucket: 512 packed pairs, so a bucket's
// dedup table (at most four slots per pair) stays in L1 and the scans
// that rank its survivors stay short.
constexpr uint64_t kPairsPerBucket = 512;

// Survivors of one bucket up to which each is ranked by a scan of the
// bucket's distinct pairs; above it the pairs are sorted instead.
constexpr size_t kRankScanMax = 16;

// A signature's shard and flat (shard, bucket) cell. The shard is the
// hash modulo the shard count, which for the usual power-of-two counts
// reads only the low bits; the bucket reads the high 32 hash bits
// through a multiply-shift range reduction.
struct Route {
  size_t shard;
  size_t cell;
};

inline Route RouteOf(Signature sig, size_t shards, size_t buckets) {
  uint64_t mixed = Mix64(sig);
  size_t shard = shards == 1 ? 0 : static_cast<size_t>(mixed % shards);
  size_t bucket = static_cast<size_t>(((mixed >> 32) * buckets) >> 32);
  return {shard, shard * buckets + bucket};
}

std::vector<PostingShard> EmptyShards(size_t shards, size_t buckets) {
  std::vector<PostingShard> out(shards);
  for (PostingShard& shard : out) shard.offsets.assign(buckets + 1, 0);
  return out;
}

// The count-then-scatter partition. Producer chunks are ParallelFor's
// static split of [0, items); visit(begin, end, f) calls f(sig, id) for
// every posting of items [begin, end). Producer c writes only its own
// histogram and cursors, so both passes are race-free; the cursors lay
// producers out in chunk order within each bucket, and the bucket sort
// then fixes the final order regardless.
template <typename Visit>
std::vector<PostingShard> Group(size_t items, const Visit& visit,
                                size_t buckets, ThreadPool& pool,
                                const std::function<bool()>& stop) {
  SSJOIN_CHECK(buckets > 0 && buckets <= (size_t{1} << 32),
               "GroupPostings: bucket count {} out of range", buckets);
  const size_t shards = pool.size();
  const size_t cells = shards * buckets;
  // Pass 1: per-producer histograms over the cells.
  std::vector<size_t> cursors(pool.size() * cells, 0);
  ParallelFor(
      pool, items,
      [&](size_t begin, size_t end, size_t c) {
        size_t* hist = &cursors[c * cells];
        visit(begin, end, [&](Signature sig, SetId) {
          ++hist[RouteOf(sig, shards, buckets).cell];
        });
      },
      stop);
  if (stop && stop()) return EmptyShards(shards, buckets);

  // Histograms → write cursors: bucket-major, producer-minor prefix sums
  // within each shard.
  std::vector<PostingShard> out(shards);
  for (size_t s = 0; s < shards; ++s) {
    std::vector<size_t>& offsets = out[s].offsets;
    offsets.resize(buckets + 1);
    size_t total = 0;
    for (size_t b = 0; b < buckets; ++b) {
      offsets[b] = total;
      for (size_t c = 0; c < pool.size(); ++c) {
        size_t& slot = cursors[c * cells + s * buckets + b];
        size_t count = slot;
        slot = total;
        total += count;
      }
    }
    offsets[buckets] = total;
  }
  // One exact-size array per shard, first touched by its own worker.
  pool.RunOnAll([&](size_t s) {
    out[s].postings.resize(out[s].offsets[buckets]);
  });

  // Pass 2: scatter.
  std::vector<Posting*> base(shards);
  for (size_t s = 0; s < shards; ++s) base[s] = out[s].postings.data();
  ParallelFor(
      pool, items,
      [&](size_t begin, size_t end, size_t c) {
        size_t* cursor = &cursors[c * cells];
        visit(begin, end, [&](Signature sig, SetId id) {
          Route route = RouteOf(sig, shards, buckets);
          base[route.shard][cursor[route.cell]++] = Posting(sig, id);
        });
      },
      stop);

  // Pass 3: sort every bucket in cache.
  ParallelFor(
      pool, cells,
      [&](size_t begin, size_t end, size_t) {
        for (size_t cell = begin; cell < end; ++cell) {
          PostingShard& shard = out[cell / buckets];
          size_t b = cell % buckets;
          std::sort(shard.postings.begin() + shard.offsets[b],
                    shard.postings.begin() + shard.offsets[b + 1]);
        }
      },
      stop);
  if (stop && stop()) return EmptyShards(shards, buckets);
  return out;
}

// Calls fn(group) for each signature group (maximal run of one
// signature) of a grouped posting array, until fn returns false.
// Returns false when fn stopped the walk.
template <typename Fn>
bool ForEachGroup(std::span<const Posting> postings, const Fn& fn) {
  for (size_t g = 0; g < postings.size();) {
    size_t h = g + 1;
    while (h < postings.size() && postings[h].first == postings[g].first) {
      ++h;
    }
    if (!fn(postings.subspan(g, h - g))) return false;
    g = h;
  }
  return true;
}

// Calls fn(group_r, group_s) for each signature present on both sides,
// merging the two shards bucket by bucket, until fn returns false.
template <typename Fn>
bool ForEachMatch(const PostingShard& shard_r, const PostingShard& shard_s,
                  const Fn& fn) {
  SSJOIN_CHECK(shard_r.buckets() == shard_s.buckets(),
               "CandidateBuckets::Add: bucket counts differ ({} vs {})",
               shard_r.buckets(), shard_s.buckets());
  for (size_t b = 0; b < shard_r.buckets(); ++b) {
    std::span<const Posting> r = shard_r.bucket(b);
    std::span<const Posting> s = shard_s.bucket(b);
    size_t i = 0, j = 0;
    while (i < r.size() && j < s.size()) {
      Signature sig = r[i].first;
      if (sig < s[j].first) {
        ++i;
      } else if (s[j].first < sig) {
        ++j;
      } else {
        size_t ei = i + 1, ej = j + 1;
        while (ei < r.size() && r[ei].first == sig) ++ei;
        while (ej < s.size() && s[ej].first == sig) ++ej;
        if (!fn(r.subspan(i, ei - i), s.subspan(j, ej - j))) return false;
        i = ei;
        j = ej;
      }
    }
  }
  return true;
}

// Calls fn(first, partners) for every run of pairs one posting makes:
// in the self-join (`r` null) with the later postings of its signature
// group, in the binary join with the matching group of `r`. Each pair is
// (first, partner id); within a self-join group ids ascend, so
// first < partner. Polls `stop` once per 64 groups and returns false
// when it fired.
template <typename Fn>
bool ForEachPairRun(const PostingShard& l, const PostingShard* r,
                    const std::function<bool()>& stop, const Fn& fn) {
  uint64_t groups = 0;
  auto keep_going = [&] {
    return !(stop && (groups++ & 63u) == 0 && stop());
  };
  if (r == nullptr) {
    return ForEachGroup(l.postings, [&](std::span<const Posting> g) {
      if (!keep_going()) return false;
      for (size_t a = 0; a + 1 < g.size(); ++a) {
        fn(g[a].second, g.subspan(a + 1));
      }
      return true;
    });
  }
  return ForEachMatch(l, *r,
                      [&](std::span<const Posting> gl,
                          std::span<const Posting> gr) {
                        if (!keep_going()) return false;
                        for (const Posting& a : gl) fn(a.second, gr);
                        return true;
                      });
}

// Splits buckets [0, prefix.size() - 1) into `ranges` contiguous ranges
// of about equal weight; prefix[b] is the weight of the buckets before
// b. Range c is [split[c], split[c + 1]). Low first ids hold most pairs,
// so equal bucket counts would leave the last workers idle.
std::vector<size_t> SplitByWeight(const std::vector<uint64_t>& prefix,
                                  size_t ranges) {
  const size_t buckets = prefix.size() - 1;
  std::vector<size_t> split(ranges + 1, buckets);
  split[0] = 0;
  size_t b = 0;
  for (size_t c = 1; c < ranges; ++c) {
    const uint64_t target = prefix.back() / ranges * c +
                            prefix.back() % ranges * c / ranges;
    while (b < buckets && prefix[b] < target) ++b;
    split[c] = b;
  }
  return split;
}

// The pair occurrences of one shard, from its group sizes alone.
uint64_t Occurrences(const PostingShard& l, const PostingShard* r) {
  uint64_t n = 0;
  if (r == nullptr) {
    ForEachGroup(l.postings, [&](std::span<const Posting> g) {
      n += uint64_t{g.size()} * (g.size() - 1) / 2;
      return true;
    });
  } else {
    ForEachMatch(l, *r,
                 [&](std::span<const Posting> gl, std::span<const Posting> gr) {
                   n += uint64_t{gl.size()} * gr.size();
                   return true;
                 });
  }
  return n;
}

// Dedups pairs[0, n) in place through an open-addressing table: the
// distinct pairs move to the front, in first-seen order, and their count
// is returned. A comparison sort of the same bucket costs several times
// more, most of it in mispredicted branches. `absent` is a value no pair
// of the bucket can take; it marks the empty slots.
size_t HashUnique(uint64_t* pairs, size_t n, uint64_t absent,
                  std::vector<uint64_t>* table) {
  size_t slots = 16;
  while (slots < 2 * n) slots <<= 1;
  table->assign(slots, absent);
  const int bits = std::countr_zero(slots);
  size_t distinct = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t pair = pairs[i];
    size_t h =
        static_cast<size_t>((pair * 0x9e3779b97f4a7c15ull) >> (64 - bits));
    while ((*table)[h] != pair) {
      if ((*table)[h] == absent) {
        (*table)[h] = pair;
        pairs[distinct++] = pair;
        break;
      }
      h = (h + 1) & (slots - 1);
    }
  }
  return distinct;
}

}  // namespace

size_t PostingBuckets(uint64_t postings, size_t shards) {
  uint64_t per_shard = postings / std::max<size_t>(1, shards);
  return static_cast<size_t>(
      std::clamp<uint64_t>(per_shard / kPostingsPerBucket, 1, 1u << 20));
}

std::vector<PostingShard> GroupPostings(std::span<const Signature> values,
                                        std::span<const size_t> offsets,
                                        size_t buckets, ThreadPool& pool,
                                        const std::function<bool()>& stop) {
  SSJOIN_CHECK(!offsets.empty(), "GroupPostings: CSR offsets are empty");
  auto visit = [&](size_t begin, size_t end, const auto& f) {
    for (size_t id = begin; id < end; ++id) {
      for (size_t i = offsets[id]; i < offsets[id + 1]; ++i) {
        f(values[i], static_cast<SetId>(id));
      }
    }
  };
  return Group(offsets.size() - 1, visit, buckets, pool, stop);
}

std::vector<PostingShard> GroupPostings(std::span<const Posting> postings,
                                        size_t buckets, ThreadPool& pool,
                                        const std::function<bool()>& stop) {
  auto visit = [&](size_t begin, size_t end, const auto& f) {
    for (size_t i = begin; i < end; ++i) {
      f(postings[i].first, postings[i].second);
    }
  };
  return Group(postings.size(), visit, buckets, pool, stop);
}

CandidateBuckets::CandidateBuckets(SetId max_first, uint32_t partitions)
    : max_first_(max_first), partitions_(std::max(1u, partitions)) {}

uint64_t CandidateBuckets::Absent(size_t b) const {
  // Bucket b holds first ids [b << shift_, (b + 1) << shift_), at most
  // 2^31 of them; flipping bit 31 of its lowest id leaves that range.
  return PackPair(static_cast<SetId>(b << shift_) ^ 0x80000000u, 0);
}

size_t CandidateBuckets::Bucket(SetId first) const {
  SSJOIN_DCHECK(first <= max_first_, "pair first id {} above max {}", first,
                max_first_);
  return static_cast<size_t>(uint64_t{first} >> shift_);
}

bool CandidateBuckets::Add(std::vector<PostingShard>* left,
                           std::vector<PostingShard>* right, ThreadPool& pool,
                           const std::function<bool()>& stop,
                           const ShardScope& scope) {
  const size_t shards = left->size();
  SSJOIN_CHECK(right == nullptr || right->size() == shards,
               "CandidateBuckets::Add: shard counts differ ({} vs {})",
               shards, right == nullptr ? 0 : right->size());
  auto right_of = [&](size_t s) {
    return right == nullptr ? nullptr : &(*right)[s];
  };
  auto free_postings = [&](size_t s) {
    (*left)[s] = PostingShard();
    if (right != nullptr) (*right)[s] = PostingShard();
  };
  // Pass 1: each shard's pair occurrences, which size the layout.
  std::vector<uint64_t> occurrences(shards, 0);
  ParallelFor(pool, shards, [&](size_t begin, size_t end, size_t) {
    for (size_t s = begin; s < end; ++s) {
      occurrences[s] = Occurrences((*left)[s], right_of(s));
    }
  });
  uint64_t total = 0;
  for (uint64_t n : occurrences) total += n;
  if (total == 0) {
    for (size_t s = 0; s < shards; ++s) free_postings(s);
    return true;
  }
  if (buckets_ == 0) {
    // At most 2^31 ids per bucket, so every bucket has an Absent() value.
    const uint64_t target =
        std::max<uint64_t>(1, total * partitions_ / kPairsPerBucket);
    while (shift_ < 31 && (uint64_t{max_first_} >> shift_) + 1 > target) {
      ++shift_;
    }
    buckets_ = static_cast<size_t>((uint64_t{max_first_} >> shift_) + 1);
  }

  // Pass 2: per-shard histograms over the global buckets.
  std::vector<size_t> cursors(shards * buckets_, 0);
  ParallelFor(pool, shards, [&](size_t begin, size_t end, size_t) {
    for (size_t s = begin; s < end; ++s) {
      size_t* hist = &cursors[s * buckets_];
      ForEachPairRun((*left)[s], right_of(s), stop,
                     [&](SetId first, std::span<const Posting> partners) {
                       hist[Bucket(first)] += partners.size();
                     });
    }
  });
  if (stop && stop()) return false;

  // Histograms -> write cursors, bucket-major and shard-minor, so every
  // copy of a pair lands in its bucket's one slot range.
  Run run;
  run.starts.resize(buckets_ + 1);
  size_t at = 0;
  for (size_t b = 0; b < buckets_; ++b) {
    run.starts[b] = at;
    for (size_t s = 0; s < shards; ++s) {
      size_t& slot = cursors[s * buckets_ + b];
      const size_t count = slot;
      slot = at;
      at += count;
    }
  }
  run.starts[buckets_] = at;
  // Exact size, allocated here rather than in a worker's malloc arena,
  // and not zero-filled: the scatter writes every slot.
  run.pairs.reset(new uint64_t[at]);

  // Pass 3: scatter, then free the shard's postings.
  uint64_t* const pairs = run.pairs.get();
  ParallelFor(pool, shards, [&](size_t begin, size_t end, size_t) {
    for (size_t s = begin; s < end; ++s) {
      auto scatter = [&] {
        size_t* cursor = &cursors[s * buckets_];
        ForEachPairRun((*left)[s], right_of(s), stop,
                       [&](SetId first, std::span<const Posting> partners) {
                         size_t& slot = cursor[Bucket(first)];
                         uint64_t* dst = pairs + slot;
                         slot += partners.size();
                         for (const Posting& p : partners) {
                           *dst++ = PackPair(first, p.second);
                         }
                       });
      };
      if (scope) {
        scope(s, occurrences[s], scatter);
      } else {
        scatter();
      }
      free_postings(s);
    }
  });
  if (stop && stop()) return false;
  collisions_ += total;
  if (partitions_ > 1) Compact(&run, pool);
  runs_.push_back(std::move(run));
  return true;
}

void CandidateBuckets::Compact(Run* run, ThreadPool& pool) {
  std::vector<uint64_t> prefix(run->starts.begin(), run->starts.end());
  const std::vector<size_t> split = SplitByWeight(prefix, pool.size());
  std::vector<size_t> distinct(buckets_, 0);
  ParallelFor(pool, pool.size(), [&](size_t begin, size_t end, size_t) {
    std::vector<uint64_t> table;
    for (size_t c = begin; c < end; ++c) {
      for (size_t b = split[c]; b < split[c + 1]; ++b) {
        distinct[b] =
            HashUnique(run->pairs.get() + run->starts[b],
                       run->starts[b + 1] - run->starts[b], Absent(b), &table);
      }
    }
  });
  Run compact;
  compact.starts.resize(buckets_ + 1);
  size_t at = 0;
  for (size_t b = 0; b < buckets_; ++b) {
    compact.starts[b] = at;
    at += distinct[b];
  }
  compact.starts[buckets_] = at;
  compact.pairs.reset(new uint64_t[at]);
  ParallelFor(pool, pool.size(), [&](size_t begin, size_t end, size_t) {
    for (size_t c = begin; c < end; ++c) {
      for (size_t b = split[c]; b < split[c + 1]; ++b) {
        std::copy_n(run->pairs.get() + run->starts[b], distinct[b],
                    compact.pairs.get() + compact.starts[b]);
      }
    }
  });
  *run = std::move(compact);
}

Survivors CandidateBuckets::Filter(const PairFilter& keep, ThreadPool& pool,
                                   const std::function<bool()>& stop) {
  std::vector<Run> runs = std::move(runs_);
  runs_.clear();
  Survivors out;
  if (runs.empty()) return out;
  std::vector<uint64_t> prefix(buckets_ + 1, 0);
  for (size_t b = 0; b < buckets_; ++b) {
    prefix[b + 1] = prefix[b];
    for (const Run& run : runs) {
      prefix[b + 1] += run.starts[b + 1] - run.starts[b];
    }
  }
  const size_t ranges = pool.size();
  const std::vector<size_t> split = SplitByWeight(prefix, ranges);

  // Per range: its survivors with offsets relative to the range's first
  // distinct pair, and its distinct count.
  struct Range {
    Survivors survivors;
    bool stopped = false;
  };
  std::vector<Range> per_range(ranges);
  ParallelFor(pool, ranges, [&](size_t begin, size_t end, size_t) {
    for (size_t c = begin; c < end; ++c) {
      Range& range = per_range[c];
      std::vector<uint64_t> merged;
      std::vector<uint64_t> table;
      std::vector<uint64_t> kept;
      uint64_t& candidates = range.survivors.candidates;
      for (size_t b = split[c]; b < split[c + 1]; ++b) {
        if (stop && stop()) {
          range.stopped = true;
          return;
        }
        // One run is deduplicated in place; several (one per partition,
        // each already distinct) are merged in a scratch buffer first.
        uint64_t* pairs;
        size_t size;
        if (runs.size() == 1) {
          pairs = runs[0].pairs.get() + runs[0].starts[b];
          size = runs[0].starts[b + 1] - runs[0].starts[b];
        } else {
          merged.clear();
          for (const Run& run : runs) {
            merged.insert(merged.end(), run.pairs.get() + run.starts[b],
                          run.pairs.get() + run.starts[b + 1]);
          }
          pairs = merged.data();
          size = merged.size();
        }
        size = HashUnique(pairs, size, Absent(b), &table);
        kept.clear();
        for (size_t i = 0; i < size; ++i) {
          if (keep(pairs[i])) kept.push_back(pairs[i]);
        }
        // A survivor's offset is the bucket's base plus the number of
        // the bucket's distinct pairs below it.
        std::sort(kept.begin(), kept.end());
        if (kept.size() > kRankScanMax) std::sort(pairs, pairs + size);
        for (uint64_t pair : kept) {
          uint64_t below = 0;
          if (kept.size() > kRankScanMax) {
            below = static_cast<uint64_t>(
                std::lower_bound(pairs, pairs + size, pair) - pairs);
          } else {
            for (size_t i = 0; i < size; ++i) below += pairs[i] < pair;
          }
          range.survivors.pairs.push_back(pair);
          range.survivors.offsets.push_back(candidates + below);
        }
        candidates += size;
      }
    }
  });
  runs.clear();
  if (stop && stop()) return out;
  size_t kept = 0;
  for (const Range& range : per_range) {
    if (range.stopped) return out;
    kept += range.survivors.pairs.size();
  }
  out.pairs.reserve(kept);
  out.offsets.reserve(kept);
  for (const Range& range : per_range) {
    out.pairs.insert(out.pairs.end(), range.survivors.pairs.begin(),
                     range.survivors.pairs.end());
    for (uint64_t offset : range.survivors.offsets) {
      out.offsets.push_back(out.candidates + offset);
    }
    out.candidates += range.survivors.candidates;
  }
  return out;
}

}  // namespace ssjoin::kernels
