#include "core/kernels/bitmap_filter.h"

#include "util/hashing.h"

namespace ssjoin::kernels {

BitmapTable BitmapTable::Prepare(size_t num_sets) {
  BitmapTable table;
  table.words_.assign(num_sets * kBitmapWords, 0);
  return table;
}

void BitmapTable::BuildRange(const SetCollection& input, size_t begin,
                             size_t end) {
  constexpr uint64_t kMask = kBitmapBits - 1;  // the width is a power of two
  for (size_t id = begin; id < end; ++id) {
    uint64_t* row = words_.data() + id * kBitmapWords;
    for (ElementId e : input.set(static_cast<SetId>(id))) {
      // Mix64 spreads structured ids uniformly; the low bits select the
      // toggled position (power-of-two width makes % a mask).
      uint64_t bit = Mix64(e) & kMask;
      row[bit >> 6] ^= 1ULL << (bit & 63);
    }
  }
}

BitmapTable BitmapTable::Build(const SetCollection& input) {
  BitmapTable table = Prepare(input.size());
  table.BuildRange(input, 0, input.size());
  return table;
}

}  // namespace ssjoin::kernels
