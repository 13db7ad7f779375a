#include "core/kernels/posting_groups.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"
#include "util/hashing.h"

namespace ssjoin::kernels {
namespace {

// Target postings per grouping bucket: a sorted bucket stays in L1.
constexpr uint64_t kPostingsPerBucket = 512;

// Target occurrences per dedup bucket: 4096 packed pairs (32 KiB), so a
// bucket's sort+unique runs in L1/L2 and the scatter writes to at most
// a few hundred streams at a time.
constexpr uint64_t kPairsPerBucket = 4096;

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
               "BinaryJoinShard: bucket counts differ ({} vs {})",
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

// Dedup sink: one exact-size occurrence array, bucketed by ascending
// ranges of the pair's first id (2^shift ids per bucket).
class PairBuckets {
 public:
  // `occurrences` (> 0) pairs will arrive; none has a first id above
  // `max_first`.
  PairBuckets(uint64_t occurrences, SetId max_first) {
    uint64_t target = std::max<uint64_t>(1, occurrences / kPairsPerBucket);
    while ((uint64_t{max_first} >> shift_) + 1 > target) ++shift_;
    starts_.assign((uint64_t{max_first} >> shift_) + 2, 0);
  }

  // Histogram pass: `n` pairs will have first id `first`.
  void Count(SetId first, uint64_t n) { starts_[Bucket(first) + 1] += n; }

  // Turns the histogram into bucket starts and sizes the array.
  void Allocate() {
    std::partial_sum(starts_.begin(), starts_.end(), starts_.begin());
    cursors_.assign(starts_.begin(), starts_.end() - 1);
    occurrences_.resize(starts_.back());
  }

  // Room for the next `n` pairs whose first id is `first`.
  uint64_t* Claim(SetId first, uint64_t n) {
    size_t& cursor = cursors_[Bucket(first)];
    uint64_t* out = occurrences_.data() + cursor;
    cursor += n;
    return out;
  }

  // Sorts and dedups each bucket in place and compacts the survivors:
  // the result is globally sorted and duplicate-free.
  std::vector<uint64_t> TakeSortedUnique() {
    auto kept = occurrences_.begin();
    for (size_t b = 0; b + 1 < starts_.size(); ++b) {
      auto first = occurrences_.begin() + starts_[b];
      auto last = occurrences_.begin() + starts_[b + 1];
      std::sort(first, last);
      last = std::unique(first, last);
      kept = kept == first ? last : std::move(first, last, kept);
    }
    occurrences_.erase(kept, occurrences_.end());
    return std::move(occurrences_);
  }

 private:
  size_t Bucket(SetId first) const {
    return static_cast<size_t>(uint64_t{first} >> shift_);
  }

  unsigned shift_ = 0;
  std::vector<size_t> starts_;
  std::vector<size_t> cursors_;
  std::vector<uint64_t> occurrences_;
};

// False once `stop` fires; polled once per 64 signature groups.
bool KeepGoing(const std::function<bool()>& stop, uint64_t* groups) {
  return !(stop && ((*groups)++ & 63u) == 0 && stop());
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

// Within a signature group ids ascend, so a < b already yields
// first < second.
ShardCandidates SelfJoinShard(const PostingShard& shard,
                              const std::function<bool()>& stop) {
  ShardCandidates out;
  // Pre-scan: the exact occurrence count (== collisions >= distinct
  // candidates) and the largest first id.
  SetId max_first = 0;
  ForEachGroup(shard.postings, [&](std::span<const Posting> g) {
    if (g.size() > 1) {
      out.collisions += uint64_t{g.size()} * (g.size() - 1) / 2;
      max_first = std::max(max_first, g[g.size() - 2].second);
    }
    return true;
  });
  if (out.collisions == 0) return out;
  PairBuckets dedup(out.collisions, max_first);
  ForEachGroup(shard.postings, [&](std::span<const Posting> g) {
    for (size_t a = 0; a + 1 < g.size(); ++a) {
      dedup.Count(g[a].second, g.size() - 1 - a);
    }
    return true;
  });
  dedup.Allocate();
  uint64_t groups = 0;
  bool done = ForEachGroup(shard.postings, [&](std::span<const Posting> g) {
    if (!KeepGoing(stop, &groups)) return false;
    for (size_t a = 0; a + 1 < g.size(); ++a) {
      uint64_t* dst = dedup.Claim(g[a].second, g.size() - 1 - a);
      for (size_t b = a + 1; b < g.size(); ++b) {
        *dst++ = PackPair(g[a].second, g[b].second);
      }
    }
    return true;
  });
  if (done) out.packed = dedup.TakeSortedUnique();
  return out;
}

ShardCandidates BinaryJoinShard(const PostingShard& shard_r,
                                const PostingShard& shard_s,
                                const std::function<bool()>& stop) {
  ShardCandidates out;
  SetId max_first = 0;
  ForEachMatch(shard_r, shard_s,
               [&](std::span<const Posting> r, std::span<const Posting> s) {
                 out.collisions += uint64_t{r.size()} * s.size();
                 max_first = std::max(max_first, r.back().second);
                 return true;
               });
  if (out.collisions == 0) return out;
  PairBuckets dedup(out.collisions, max_first);
  ForEachMatch(shard_r, shard_s,
               [&](std::span<const Posting> r, std::span<const Posting> s) {
                 for (const Posting& a : r) dedup.Count(a.second, s.size());
                 return true;
               });
  dedup.Allocate();
  uint64_t groups = 0;
  bool done = ForEachMatch(
      shard_r, shard_s,
      [&](std::span<const Posting> r, std::span<const Posting> s) {
        if (!KeepGoing(stop, &groups)) return false;
        for (const Posting& a : r) {
          uint64_t* dst = dedup.Claim(a.second, s.size());
          for (const Posting& b : s) *dst++ = PackPair(a.second, b.second);
        }
        return true;
      });
  if (done) out.packed = dedup.TakeSortedUnique();
  return out;
}

}  // namespace ssjoin::kernels
