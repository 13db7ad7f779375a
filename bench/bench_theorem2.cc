// Theorem 2 check: with n1 = k/ln k and n2 = 2 ln k, PartEnum separates
// vectors with Hd > 7.5k with probability 1 - o(1), using O(k^2.39)
// signatures per set. Measure the far-pair collision rate and the
// signature count for growing k.

#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "core/partenum.h"
#include "util/sorted_sets.h"
#include "util/random.h"

using namespace ssjoin;
using namespace ssjoin::bench;

namespace {

bool ShareSignature(const PartEnumScheme& scheme,
                    std::span<const ElementId> a,
                    std::span<const ElementId> b) {
  std::vector<Signature> sa = scheme.Signatures(a);
  std::vector<Signature> sb = scheme.Signatures(b);
  std::sort(sa.begin(), sa.end());
  for (Signature sig : sb) {
    if (std::binary_search(sa.begin(), sa.end(), sig)) return true;
  }
  return false;
}

}  // namespace

int main() {
  std::printf(
      "=== Theorem 2: far pairs rarely collide at n1=k/ln k, "
      "n2=2 ln k ===\n\n");
  std::printf("%-6s %-10s %12s %16s %18s\n", "k", "(n1,n2)", "sigs/set",
              "far-collision%", "k^2.39 (scale)");
  Rng rng(2025);
  for (uint32_t k : {4u, 6u, 8u, 12u, 16u}) {
    double lnk = std::log(static_cast<double>(k));
    PartEnumParams params;
    params.k = k;
    params.n1 = std::max<uint32_t>(
        1, static_cast<uint32_t>(std::round(k / lnk)));
    params.n1 = std::min(params.n1, k + 1);
    params.n2 = std::max<uint32_t>(
        2, static_cast<uint32_t>(std::round(2 * lnk)));
    while (static_cast<uint64_t>(params.n1) * params.n2 <=
           static_cast<uint64_t>(k) + 1) {
      ++params.n2;
    }
    auto scheme = PartEnumScheme::Create(params);
    if (!scheme.ok()) {
      std::printf("k=%u skipped: %s\n", k,
                  scheme.status().ToString().c_str());
      continue;
    }
    // Far pairs: random sets of size 10k from a large domain — expected
    // overlap ~0, so Hd ~ 20k > 7.5k.
    int collisions = 0;
    constexpr int kTrials = 400;
    int checked = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      std::vector<uint32_t> a =
          SampleWithoutReplacement(1000000, 10 * k, rng);
      std::vector<uint32_t> b =
          SampleWithoutReplacement(1000000, 10 * k, rng);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (SparseHammingDistance(a, b) <= 7.5 * k) continue;
      ++checked;
      if (ShareSignature(*scheme, a, b)) ++collisions;
    }
    char shape[24];
    std::snprintf(shape, sizeof(shape), "(%u,%u)", params.n1, params.n2);
    std::printf("%-6u %-10s %12llu %15.2f%% %18.0f\n", k, shape,
                static_cast<unsigned long long>(params.SignaturesPerSet()),
                100.0 * collisions / std::max(checked, 1),
                std::pow(k, 2.39));
    std::fflush(stdout);  // ssjoin-lint: allow(no-unchecked-io) progress display
  }
  std::printf(
      "\n(expected: collision rate near zero for all k; signatures grow\n"
      " polynomially, tracking the k^2.39 column's growth rate)\n");
  return 0;
}
