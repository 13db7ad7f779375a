// Differential tests for partitioned candidate generation
// (core/kernels/posting_groups.h) against a std::sort reference: the
// grouping must be a partition of the postings into sorted, shard- and
// bucket-disjoint signature groups, and the union of the per-shard
// candidates must equal sort+unique over every group's pairs, with the
// same collision count — at 1–4 shards and several bucket counts, for
// CSR and flat (spill) input, self and binary joins.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/posting_groups.h"
#include "core/types.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ssjoin::kernels {
namespace {

// A signature table: set i owns values[offsets[i], offsets[i + 1]),
// sorted and duplicate-free, as SigGen produces it.
struct Table {
  std::vector<Signature> values;
  std::vector<size_t> offsets{0};

  void Add(std::vector<Signature> sigs) {
    std::sort(sigs.begin(), sigs.end());
    sigs.erase(std::unique(sigs.begin(), sigs.end()), sigs.end());
    values.insert(values.end(), sigs.begin(), sigs.end());
    offsets.push_back(values.size());
  }

  // The postings in set order, set i carrying id base + i: the order a
  // spill partition file holds them in.
  std::vector<Posting> Postings(SetId base) const {
    std::vector<Posting> out;
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      for (size_t v = offsets[i]; v < offsets[i + 1]; ++v) {
        out.emplace_back(values[v], static_cast<SetId>(base + i));
      }
    }
    return out;
  }
};

Table RandomTable(Rng& rng, size_t sets, uint32_t max_sigs,
                  uint64_t universe) {
  Table table;
  for (size_t i = 0; i < sets; ++i) {
    std::vector<Signature> sigs(rng.Uniform(max_sigs + 1));
    for (Signature& sig : sigs) sig = rng.Next64() % universe;
    table.Add(std::move(sigs));
  }
  return table;
}

struct Candidates {
  std::vector<uint64_t> packed;
  uint64_t collisions = 0;

  bool operator==(const Candidates&) const = default;
};

// Reference: one global sort, then every pair of every group.
Candidates ReferenceSelf(std::vector<Posting> postings) {
  std::sort(postings.begin(), postings.end());
  Candidates out;
  for (size_t g = 0; g < postings.size();) {
    size_t h = g;
    while (h < postings.size() && postings[h].first == postings[g].first) ++h;
    for (size_t a = g; a < h; ++a) {
      for (size_t b = a + 1; b < h; ++b) {
        out.packed.push_back(PackPair(postings[a].second, postings[b].second));
        ++out.collisions;
      }
    }
    g = h;
  }
  std::sort(out.packed.begin(), out.packed.end());
  out.packed.erase(std::unique(out.packed.begin(), out.packed.end()),
                   out.packed.end());
  return out;
}

Candidates ReferenceBinary(const std::vector<Posting>& r,
                           const std::vector<Posting>& s) {
  std::map<Signature, std::vector<SetId>> ids_s;
  for (const Posting& p : s) ids_s[p.first].push_back(p.second);
  Candidates out;
  for (const Posting& p : r) {
    auto it = ids_s.find(p.first);
    if (it == ids_s.end()) continue;
    for (SetId id_s : it->second) {
      out.packed.push_back(PackPair(p.second, id_s));
      ++out.collisions;
    }
  }
  std::sort(out.packed.begin(), out.packed.end());
  out.packed.erase(std::unique(out.packed.begin(), out.packed.end()),
                   out.packed.end());
  return out;
}

// The grouping contract: the bucket count as asked, every bucket
// strictly sorted, no signature in two buckets (of any shard), and
// together exactly the input postings.
void ExpectValidGroups(const std::vector<PostingShard>& shards,
                       size_t buckets, std::vector<Posting> expected) {
  std::vector<Posting> seen;
  std::map<Signature, std::pair<size_t, size_t>> home;
  for (size_t s = 0; s < shards.size(); ++s) {
    const PostingShard& shard = shards[s];
    ASSERT_EQ(shard.buckets(), buckets);
    ASSERT_EQ(shard.offsets.front(), 0u);
    ASSERT_EQ(shard.offsets.back(), shard.postings.size());
    for (size_t b = 0; b < buckets; ++b) {
      ASSERT_LE(shard.offsets[b], shard.offsets[b + 1]);
      std::span<const Posting> bucket = shard.bucket(b);
      EXPECT_TRUE(std::adjacent_find(bucket.begin(), bucket.end(),
                                     [](const Posting& x, const Posting& y) {
                                       return !(x < y);
                                     }) == bucket.end())
          << "bucket " << b << " of shard " << s << " not strictly sorted";
      for (const Posting& p : bucket) {
        auto it = home.emplace(p.first, std::make_pair(s, b)).first;
        EXPECT_EQ(it->second, std::make_pair(s, b))
            << "signature " << p.first << " split across buckets";
        seen.push_back(p);
      }
    }
  }
  std::sort(seen.begin(), seen.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected);
}

// Per-shard outputs must be strictly ascending; their union and summed
// collisions are the join's candidates.
Candidates Union(const std::vector<ShardCandidates>& per_shard) {
  Candidates out;
  for (const ShardCandidates& shard : per_shard) {
    EXPECT_TRUE(std::adjacent_find(shard.packed.begin(), shard.packed.end(),
                                   std::greater_equal<uint64_t>()) ==
                shard.packed.end());
    out.packed.insert(out.packed.end(), shard.packed.begin(),
                      shard.packed.end());
    out.collisions += shard.collisions;
  }
  std::sort(out.packed.begin(), out.packed.end());
  out.packed.erase(std::unique(out.packed.begin(), out.packed.end()),
                   out.packed.end());
  return out;
}

// Bucket counts to try at `threads` shards for `postings` postings: one
// bucket, a few odd ones, and the production choice.
std::vector<size_t> BucketCounts(size_t postings, size_t threads) {
  return {1, 3, 64, PostingBuckets(postings, threads)};
}

// Self join of `table` through both input forms (CSR when ids start at
// 0, flat from `base`) at 1–4 shards, against the reference.
void ExpectSelfJoinMatches(const Table& table, SetId base) {
  const std::vector<Posting> postings = table.Postings(base);
  const Candidates expected = ReferenceSelf(postings);
  for (size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    for (size_t buckets : BucketCounts(postings.size(), threads)) {
      SCOPED_TRACE(testing::Message() << "threads " << threads << " buckets "
                                      << buckets << " base " << base);
      std::vector<std::vector<PostingShard>> groupings;
      groupings.push_back(GroupPostings(postings, buckets, pool, {}));
      if (base == 0) {
        groupings.push_back(GroupPostings(table.values, table.offsets,
                                          buckets, pool, {}));
      }
      for (const std::vector<PostingShard>& shards : groupings) {
        ASSERT_EQ(shards.size(), threads);
        ExpectValidGroups(shards, buckets, postings);
        std::vector<ShardCandidates> per_shard;
        for (const PostingShard& shard : shards) {
          per_shard.push_back(SelfJoinShard(shard, {}));
        }
        EXPECT_EQ(Union(per_shard), expected);
      }
    }
  }
}

void ExpectBinaryJoinMatches(const Table& r, SetId base_r, const Table& s,
                             SetId base_s) {
  const std::vector<Posting> postings_r = r.Postings(base_r);
  const std::vector<Posting> postings_s = s.Postings(base_s);
  const Candidates expected = ReferenceBinary(postings_r, postings_s);
  for (size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    size_t larger = std::max(postings_r.size(), postings_s.size());
    for (size_t buckets : BucketCounts(larger, threads)) {
      SCOPED_TRACE(testing::Message() << "threads " << threads << " buckets "
                                      << buckets);
      std::vector<PostingShard> shards_r =
          GroupPostings(postings_r, buckets, pool, {});
      std::vector<PostingShard> shards_s =
          GroupPostings(postings_s, buckets, pool, {});
      ExpectValidGroups(shards_r, buckets, postings_r);
      ExpectValidGroups(shards_s, buckets, postings_s);
      std::vector<ShardCandidates> per_shard;
      for (size_t shard = 0; shard < threads; ++shard) {
        per_shard.push_back(BinaryJoinShard(shards_r[shard], shards_s[shard],
                                            {}));
      }
      EXPECT_EQ(Union(per_shard), expected);
    }
  }
}

TEST(PostingGroups, RandomSelfJoinsMatchSortReference) {
  Rng rng(1206);
  // Dense universes make big groups; the 2^64 one makes mostly
  // singletons.
  for (uint64_t universe : {40ull, 2000ull, ~0ull}) {
    for (int trial = 0; trial < 3; ++trial) {
      Table table = RandomTable(rng, 1 + rng.Uniform(500), 12, universe);
      ExpectSelfJoinMatches(table, 0);
    }
  }
}

TEST(PostingGroups, RandomBinaryJoinsMatchSortReference) {
  Rng rng(1207);
  for (uint64_t universe : {40ull, 2000ull}) {
    for (int trial = 0; trial < 3; ++trial) {
      Table r = RandomTable(rng, 1 + rng.Uniform(300), 10, universe);
      Table s = RandomTable(rng, 1 + rng.Uniform(300), 10, universe);
      ExpectBinaryJoinMatches(r, 0, s, 0);
    }
  }
}

TEST(PostingGroups, EmptyTable) {
  Table empty;
  ExpectSelfJoinMatches(empty, 0);
  Rng rng(3);
  ExpectBinaryJoinMatches(empty, 0, RandomTable(rng, 20, 5, 30), 0);
  ExpectBinaryJoinMatches(RandomTable(rng, 20, 5, 30), 0, empty, 0);
}

TEST(PostingGroups, SingleSet) {
  Table one;
  one.Add({3, 9, 27, 81});
  ExpectSelfJoinMatches(one, 0);
  ExpectBinaryJoinMatches(one, 0, one, 0);
}

TEST(PostingGroups, OneSignatureSharedByEverySet) {
  // One giant group (and bucket): 300 * 299 / 2 = 44850 pairs, enough
  // for several first-id dedup buckets.
  Rng rng(5);
  Table table;
  for (int i = 0; i < 300; ++i) {
    table.Add({42, 1000 + rng.Uniform(50)});
  }
  ExpectSelfJoinMatches(table, 0);
  ExpectBinaryJoinMatches(table, 0, table, 0);
}

TEST(PostingGroups, SmallIntegerSignatures) {
  // The prefix filter's signatures are element ids: they must still
  // spread over shards and buckets through the hash.
  Rng rng(7);
  Table table = RandomTable(rng, 400, 6, 16);
  ExpectSelfJoinMatches(table, 0);
}

TEST(PostingGroups, AllOnesSignature) {
  const Signature all_ones = std::numeric_limits<Signature>::max();
  Table table;
  table.Add({all_ones, 0});
  table.Add({all_ones - 1});
  table.Add({all_ones, 5});
  table.Add({0, 5});
  ExpectSelfJoinMatches(table, 0);
  ExpectBinaryJoinMatches(table, 0, table, 0);
}

TEST(PostingGroups, SetIdsNearUint32Max) {
  // Ids run up to UINT32_MAX itself: the high half of PackPair and the
  // first-id dedup buckets see their largest values.
  Rng rng(11);
  Table table = RandomTable(rng, 200, 6, 60);
  const SetId top = std::numeric_limits<SetId>::max();
  const SetId base = top - 199;
  ExpectSelfJoinMatches(table, base);
  ExpectBinaryJoinMatches(table, base, table, 0);
  ExpectBinaryJoinMatches(table, 0, table, base);
}

TEST(PostingGroups, StopDiscardsOutput) {
  Rng rng(13);
  Table table = RandomTable(rng, 200, 6, 60);
  std::vector<Posting> postings = table.Postings(0);
  auto stop = [] { return true; };
  for (size_t threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    std::vector<PostingShard> stopped =
        GroupPostings(table.values, table.offsets, 5, pool, stop);
    ASSERT_EQ(stopped.size(), threads);
    for (const PostingShard& shard : stopped) {
      EXPECT_EQ(shard.buckets(), 5u);
      EXPECT_TRUE(shard.postings.empty());
    }
    std::vector<PostingShard> shards = GroupPostings(postings, 5, pool, {});
    for (const PostingShard& shard : shards) {
      EXPECT_TRUE(SelfJoinShard(shard, stop).packed.empty());
      EXPECT_TRUE(BinaryJoinShard(shard, shard, stop).packed.empty());
    }
  }
}

}  // namespace
}  // namespace ssjoin::kernels
