#include "core/signature_scheme.h"

#include <algorithm>
#include <span>

#include "core/kernels/hash_kernels.h"
#include "util/check.h"
#include "util/hashing.h"

namespace ssjoin {

void GenerateSorted(const SignatureScheme& scheme,
                    std::span<const ElementId> set,
                    std::vector<Signature>* scratch) {
  scratch->clear();
  scheme.Generate(set, scratch);
  std::sort(scratch->begin(), scratch->end());
  scratch->erase(std::unique(scratch->begin(), scratch->end()),
                 scratch->end());
}

void NarrowedScheme::Generate(std::span<const ElementId> set,
                              std::vector<Signature>* out) const {
  SSJOIN_CHECK(base_ != nullptr, "NarrowedScheme wraps a null scheme");
  SSJOIN_CHECK(bits_ >= 1 && bits_ <= 64,
               "narrowed signature width {} outside [1, 64] bits", bits_);
  size_t before = out->size();
  base_->Generate(set, out);
  // Re-mix before narrowing so that structured low bits (e.g. raw
  // element ids from the identity scheme) spread over the kept bits.
  // Batched 4-wide; value-exact with NarrowHash(Mix64(sig), bits).
  kernels::MixNarrowBatch(
      std::span<Signature>(out->data() + before, out->size() - before),
      bits_);
}

}  // namespace ssjoin
