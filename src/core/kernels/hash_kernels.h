// Batched signature-hashing kernels (DESIGN.md Section 11).
//
// Signature generation is a large single-thread cost (the bench/profile
// ledger's pipeline.siggen.share_serial; DESIGN.md Section 11.3 lists it
// per workload), and much of it is the per-element Mix64 / HashCombine
// chain: PartEnum
// re-mixes every element once per enumerated subset, WtEnum once per DFS
// inclusion, and the tagged wrappers (partenum_jaccard, general_join)
// re-combine every emitted signature with its instance tag.
//
// Two observations make this fast without changing a single hash value:
//
//   1. HashCombine(state, v) = state ^ (Mix64(v) + C + shifts(state)).
//      Only Mix64(v) is expensive (3 multiplies, 4 xor-shifts) and it
//      does not depend on the accumulator — so the mix of each element
//      can be computed once, 4-wide and data-parallel, and the cheap
//      sequential fold reuses it arbitrarily often. MixBatch +
//      SequenceHasher::AddMixed implement exactly that split; the
//      results are bit-identical to the scalar Add chain (differential
//      suite, ctest label `kernels`).
//
//   2. The tag-combine loops transform each signature independently:
//      out[p] = HashCombine(tag_seed, out[p]). HashCombineBatch unrolls
//      the transform 4-wide so the four Mix64 pipelines overlap in the
//      out-of-order core (the multiplies of independent elements have no
//      dependency chain between them).
//
// Everything here is value-exact with util/hashing.h by construction —
// these kernels re-order work, never redefine it — so signatures,
// candidates, and join output are byte-identical whether or not a call
// site has been converted.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/hashing.h"

namespace ssjoin::kernels {

/// mixed[i] = Mix64(values[i]), 4-wide unrolled. `mixed` must have
/// values.size() capacity.
inline void MixBatch(std::span<const uint32_t> values, uint64_t* mixed) {
  size_t i = 0;
  const size_t n = values.size();
  for (; i + 4 <= n; i += 4) {
    // Four independent Mix64 pipelines; no cross-iteration dependency.
    uint64_t m0 = Mix64(values[i]);
    uint64_t m1 = Mix64(values[i + 1]);
    uint64_t m2 = Mix64(values[i + 2]);
    uint64_t m3 = Mix64(values[i + 3]);
    mixed[i] = m0;
    mixed[i + 1] = m1;
    mixed[i + 2] = m2;
    mixed[i + 3] = m3;
  }
  for (; i < n; ++i) mixed[i] = Mix64(values[i]);
}

/// Appends Mix64 of every value to `mixed`.
inline void MixBatch(std::span<const uint32_t> values,
                     std::vector<uint64_t>* mixed) {
  size_t base = mixed->size();
  mixed->resize(base + values.size());
  MixBatch(values, mixed->data() + base);
}

/// out[i] = HashCombine(seed, out[i]) for every element, 4-wide
/// unrolled — the tagged-signature transform of partenum_jaccard /
/// general_join, value-exact with the scalar loop.
inline void HashCombineBatch(uint64_t seed, std::span<uint64_t> out) {
  size_t i = 0;
  const size_t n = out.size();
  const uint64_t shifted =
      0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  for (; i + 4 <= n; i += 4) {
    uint64_t m0 = Mix64(out[i]);
    uint64_t m1 = Mix64(out[i + 1]);
    uint64_t m2 = Mix64(out[i + 2]);
    uint64_t m3 = Mix64(out[i + 3]);
    out[i] = seed ^ (m0 + shifted);
    out[i + 1] = seed ^ (m1 + shifted);
    out[i + 2] = seed ^ (m2 + shifted);
    out[i + 3] = seed ^ (m3 + shifted);
  }
  for (; i < n; ++i) out[i] = HashCombine(seed, out[i]);
}

/// out[i] = NarrowHash(Mix64(out[i]), bits) for every element — the
/// NarrowedScheme re-mix/narrow transform, 4-wide unrolled.
inline void MixNarrowBatch(std::span<uint64_t> out, int bits) {
  size_t i = 0;
  const size_t n = out.size();
  for (; i + 4 <= n; i += 4) {
    uint64_t m0 = Mix64(out[i]);
    uint64_t m1 = Mix64(out[i + 1]);
    uint64_t m2 = Mix64(out[i + 2]);
    uint64_t m3 = Mix64(out[i + 3]);
    out[i] = NarrowHash(m0, bits);
    out[i + 1] = NarrowHash(m1, bits);
    out[i + 2] = NarrowHash(m2, bits);
    out[i + 3] = NarrowHash(m3, bits);
  }
  for (; i < n; ++i) out[i] = NarrowHash(Mix64(out[i]), bits);
}

}  // namespace ssjoin::kernels
