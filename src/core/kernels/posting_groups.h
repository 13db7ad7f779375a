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
//   * SelfJoinShard / BinaryJoinShard: the exact occurrence count of the
//     pre-scan is extended with a histogram over each pair's first id;
//     pairs are scattered into one exact-size occurrence array bucketed
//     by ranges of the first id, and each bucket is sorted and
//     deduplicated in place. Bucket ranges ascend, so the result is
//     globally sorted without a final sort.
//
// Every output is a pure function of the posting multiset — bucket
// contents are fully sorted — so it is byte-identical for every thread
// count, producer split and input order.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
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

/// One shard's candidate output: packed pairs, sorted and duplicate-free
/// within the shard (a pair can still surface in two shards via two
/// different signatures; the caller's union removes those).
struct ShardCandidates {
  std::vector<uint64_t> packed;
  uint64_t collisions = 0;
};

/// Self-join candidate generation over one grouped shard. On a stop the
/// packed output is empty.
ShardCandidates SelfJoinShard(const PostingShard& shard,
                              const std::function<bool()>& stop);

/// Binary-join candidate generation: both sides were grouped with the
/// same bucket count, so the merge-join runs bucket by bucket.
ShardCandidates BinaryJoinShard(const PostingShard& shard_r,
                                const PostingShard& shard_s,
                                const std::function<bool()>& stop);

}  // namespace ssjoin::kernels
