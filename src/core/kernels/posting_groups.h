// Partitioned candidate generation (DESIGN.md Sections 6.1 and 11.4).
//
// The candidate-pair step of Figure 2 is an equi-join on signatures:
// group the (signature, set id) postings by signature, then pair up each
// group. Both halves are count-then-scatter partitions into exact-size
// arrays, so nothing grows by doubling and nothing is sorted globally:
//
//   * GroupPostings: one counting pass builds per-producer histograms
//     over (shard, bucket); a second pass scatters the postings into one
//     exact-size array per shard; each bucket (about 512 postings) is
//     then sorted in cache. Shard and bucket are functions of the
//     signature's hash alone, so a signature group never straddles
//     shards or buckets, per-shard collision counts sum to exactly the
//     serial total, and even small-integer signatures (the prefix
//     filter's element ids) spread.
//   * CandidateBuckets: pairs up the groups and filters the distinct
//     pairs in the same pass, so the candidate set is never built. Each
//     shard histograms its pair occurrences over one global layout of
//     buckets by ranges of the pair's first id, so every copy of a pair,
//     from any shard or spill partition, lands in one bucket. The shards
//     scatter into one exact-size occurrence array (their postings are
//     freed right after), and a bucket pass dedups each bucket in cache
//     through a small hash table, counts the distinct candidates and
//     applies the pre-filter (BitmapTable::MayMatch in the join). Only
//     survivors leave, sorted, each with its offset in the sorted
//     distinct sequence; nothing else is ever sorted.
//     Spilled, each partition's run is deduplicated in place when it is
//     added, and the one bucket pass merges the runs across partitions.
//
// Every output is a pure function of the posting multiset — grouped
// buckets are fully sorted, survivors are sorted and their offsets are
// exact counts — so it is byte-identical for every thread count,
// producer split, partition count and input order.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/types.h"
#include "util/thread_pool.h"

namespace ssjoin::kernels {

/// One (signature, set id) occurrence; sorted order groups equal
/// signatures and, within a group, ascends by id.
using Posting = std::pair<Signature, SetId>;

/// Buckets per shard for `postings` postings over `shards` shards. Both
/// sides of a binary join must be grouped with the same count.
size_t PostingBuckets(uint64_t postings, size_t shards);

/// One shard's postings, grouped. Bucket b is
/// postings[offsets[b], offsets[b + 1]), sorted by (signature, id); all
/// postings of a signature share a bucket, so each signature group is
/// one contiguous run, ascending by id. Buckets are in bucket order, not
/// signature order.
struct PostingShard {
  std::vector<Posting> postings;
  std::vector<size_t> offsets;

  size_t buckets() const { return offsets.size() - 1; }
  std::span<const Posting> bucket(size_t b) const {
    return {postings.data() + offsets[b], offsets[b + 1] - offsets[b]};
  }
};

/// Groups a CSR signature table (set `id` owns
/// values[offsets[id], offsets[id + 1])) into pool.size() shards of
/// `buckets` buckets each. On a stop the shards come back empty (every
/// bucket empty); callers discard them.
std::vector<PostingShard> GroupPostings(std::span<const Signature> values,
                                        std::span<const size_t> offsets,
                                        size_t buckets, ThreadPool& pool,
                                        const std::function<bool()>& stop);

/// Same, over a flat posting list (a spill partition).
std::vector<PostingShard> GroupPostings(std::span<const Posting> postings,
                                        size_t buckets, ThreadPool& pool,
                                        const std::function<bool()>& stop);

/// Whether one distinct candidate pair (packed) survives the pre-filter.
/// The bucket pass calls it from the pool's workers, so it may only read
/// shared state.
using PairFilter = std::function<bool(uint64_t)>;

/// Runs one shard's scatter on that shard's worker and must call
/// `scatter()` exactly once; `occurrences` is the shard's pair count. The
/// join wraps each shard in a runtime trace sample through it.
using ShardScope = std::function<void(
    size_t shard, uint64_t occurrences, const std::function<void()>& scatter)>;

/// The bucket pass's output: the distinct candidates that passed the
/// filter, ascending, each with its pre-filter offset (how many distinct
/// candidates precede it), and the distinct candidate count.
struct Survivors {
  std::vector<uint64_t> pairs;
  std::vector<uint64_t> offsets;
  uint64_t candidates = 0;
};

/// Candidate generation fused with the pre-filter. Every pair occurrence
/// of every shard (and, spilled, of every partition) lands in one global
/// layout of buckets over ascending ranges of the pair's first id, so all
/// copies of a pair share a bucket and each bucket dedups on its own.
///
///   CandidateBuckets buckets(max_first, partitions);
///   for each partition: buckets.Add(&shards_l, &shards_r or null, ...);
///   Survivors out = buckets.Filter(keep, ...);
///
/// Neither step builds the candidate set: Add scatters occurrences into
/// one exact-size array per partition, and Filter dedups, counts and
/// filters bucket by bucket. Every output is a pure function of the
/// posting multisets, byte-identical at every thread count, shard split
/// and partition count.
class CandidateBuckets {
 public:
  /// No pair's first id exceeds `max_first`. `partitions` is the number
  /// of Add calls to come; the layout is sized from the first one that
  /// has pairs, for about 512 occurrences per bucket over all of them.
  CandidateBuckets(SetId max_first, uint32_t partitions);

  /// Pairs up one partition's grouped postings: the self-join of `left`
  /// when `right` is null, otherwise the bucket-by-bucket merge join of
  /// shard i of both sides (grouped with the same bucket count). Each
  /// shard histograms its pairs over the global buckets, one exact-size
  /// array is allocated on the calling thread, the shards scatter into it
  /// in parallel (through `scope` when set) and their postings are freed.
  /// With more than one partition the partition's run is deduplicated
  /// bucket by bucket and compacted, so only distinct pairs wait for
  /// Filter. Returns false on a stop; the caller discards the
  /// object then.
  bool Add(std::vector<PostingShard>* left, std::vector<PostingShard>* right,
           ThreadPool& pool, const std::function<bool()>& stop,
           const ShardScope& scope = {});

  /// Pair occurrences added so far: the signature collision count.
  uint64_t collisions() const { return collisions_; }

  /// The bucket pass: buckets are split into pool.size() contiguous
  /// ranges of about equal occurrence counts; each range merges its
  /// buckets' runs, dedups them, counts the distinct pairs and keeps
  /// those `keep` accepts, ranked among the bucket's distinct pairs.
  /// Consumes the runs. On a stop the output is empty.
  Survivors Filter(const PairFilter& keep, ThreadPool& pool,
                   const std::function<bool()>& stop);

 private:
  // One partition's occurrences: bucket b is pairs[starts[b], starts[b+1]).
  struct Run {
    std::unique_ptr<uint64_t[]> pairs;
    std::vector<size_t> starts;
  };

  size_t Bucket(SetId first) const;
  // A pair value no pair of bucket `b` can take.
  uint64_t Absent(size_t b) const;
  // Dedups each bucket of `run` in place, then moves the distinct pairs
  // into an exact-size array.
  void Compact(Run* run, ThreadPool& pool);

  SetId max_first_;
  uint32_t partitions_;
  unsigned shift_ = 0;
  size_t buckets_ = 0;  // 0 until the layout is fixed
  uint64_t collisions_ = 0;
  std::vector<Run> runs_;
};

}  // namespace ssjoin::kernels
