// Shared chunk representations of the operator pipeline (DESIGN.md
// Section 13).
//
// Two batch shapes flow between operators:
//
//   * SignatureChunk — one whole input side's flattened per-set
//     signature lists in CSR layout. This is the exact layout the
//     drivers always built (values + offsets, deduplicated within each
//     set), so handing it between operators is a pointer move, never a
//     re-encode.
//   * CandidateChunk — one verify super-chunk of packed candidate
//     pairs. kCandidateChunkCapacity equals the guarded verify
//     super-chunk (16384 candidates): chunk boundaries ARE the
//     deterministic guard barriers, so the chunked verify protocol
//     (checkpoint + breaker per boundary) falls out of the batch size
//     instead of being re-derived inside the verifier.
//
// Determinism contract: every count stored here (start_offset,
// pre_filter_count, the bitmap tallies) is derived from input order,
// never from scheduling, so downstream stats commits are byte-identical
// at any thread count.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace ssjoin::pipeline {

/// Flattened per-set signature lists (CSR): values holds the
/// concatenated, per-set-deduplicated Sign(set) lists; offsets has
/// collection.size() + 1 entries.
struct SignatureChunk {
  std::vector<Signature> values;
  std::vector<size_t> offsets;

  uint64_t total() const { return values.size(); }
};

/// Heap footprint of a chunk — the quantity charged against the guard's
/// memory budget (and compared to it by the auto-spill degrade check),
/// thread-count-independent by construction.
inline size_t SignatureChunkBytes(const SignatureChunk& chunk) {
  return chunk.values.size() * sizeof(Signature) +
         chunk.offsets.size() * sizeof(size_t);
}

/// Candidates per CandidateChunk — the guarded verify super-chunk size.
/// Changing this changes where trips land mid-join, which is part of the
/// byte-identity contract the differential suite pins.
inline constexpr size_t kCandidateChunkCapacity = 16384;

/// One verify super-chunk of packed candidate pairs.
struct CandidateChunk {
  /// Global index of this chunk's first candidate, counted before any
  /// bitmap filtering — the breaker argument of the chunk's barrier.
  size_t start_offset = 0;
  /// Candidates the producer put in this chunk (packed.size() before
  /// BitmapFilterOperator compacted it).
  size_t pre_filter_count = 0;
  /// Bitmap pre-filter tallies for this chunk. The filter only fills
  /// these; VerifyOperator commits them into JoinStats *after* the
  /// chunk's checkpoint passes, so a trip at the barrier leaves the
  /// stats exactly as the legacy chunk loop did.
  uint64_t bitmap_checked = 0;
  uint64_t bitmap_pruned = 0;
  /// PackPair()ed candidate pairs, in deterministic candidate order.
  std::vector<uint64_t> packed;
  /// Pairs that survived verification, appended in candidate order.
  std::vector<SetPair> verified;

  void Reset() {
    start_offset = 0;
    pre_filter_count = 0;
    bitmap_checked = 0;
    bitmap_pruned = 0;
    packed.clear();
    verified.clear();
  }
};

/// One pull's worth of data. The signature pointers alias the producing
/// operator's storage (non-const: the auto-spill degrade check frees the
/// tables through them); the candidate chunk is carried by value and
/// reused across pulls via Reset().
struct Batch {
  enum class Kind { kEnd, kSignatures, kCandidates };

  Kind kind = Kind::kEnd;
  SignatureChunk* signatures_l = nullptr;
  SignatureChunk* signatures_r = nullptr;
  CandidateChunk candidates;

  void Reset() {
    kind = Kind::kEnd;
    signatures_l = nullptr;
    signatures_r = nullptr;
    candidates.Reset();
  }
};

/// Slices the next kCandidateChunkCapacity candidates of a sorted packed
/// vector into `out` and advances *pos. Returns false (leaving `out` an
/// end batch) once the vector is exhausted. Shared by every operator
/// that streams a materialized candidate vector (sorted candidate
/// generation, the spill partitioner).
inline bool EmitCandidateSlice(const std::vector<uint64_t>& candidates,
                               size_t* pos, Batch* out) {
  if (*pos >= candidates.size()) return false;
  size_t end = std::min(candidates.size(), *pos + kCandidateChunkCapacity);
  out->kind = Batch::Kind::kCandidates;
  out->candidates.start_offset = *pos;
  out->candidates.pre_filter_count = end - *pos;
  out->candidates.packed.assign(candidates.begin() + *pos,
                                candidates.begin() + end);
  *pos = end;
  return true;
}

}  // namespace ssjoin::pipeline
