#include "data/collection.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "util/check.h"
#include "util/hashing.h"
#include "util/random.h"

namespace ssjoin {

ElementId SetCollection::max_element() const {
  ElementId max_e = 0;
  for (ElementId e : elements_) max_e = std::max(max_e, e);
  return max_e;
}

uint32_t SetCollection::max_set_size() const {
  uint32_t m = 0;
  for (SetId id = 0; id < size(); ++id) m = std::max(m, set_size(id));
  return m;
}

uint32_t SetCollection::min_set_size() const {
  if (empty()) return 0;
  uint32_t m = set_size(0);
  for (SetId id = 1; id < size(); ++id) m = std::min(m, set_size(id));
  return m;
}

SetCollection SetCollection::FromVectors(
    const std::vector<std::vector<ElementId>>& sets) {
  SetCollectionBuilder builder;
  for (const auto& s : sets) builder.Add(s);
  return builder.Build();
}

SetCollection SetCollection::Sample(size_t k, uint64_t seed) const {
  if (k >= size()) return *this;
  Rng rng(seed);
  std::vector<uint32_t> ids =
      SampleWithoutReplacement(static_cast<uint32_t>(size()),
                               static_cast<uint32_t>(k), rng);
  SetCollectionBuilder builder;
  for (uint32_t id : ids) builder.Add(set(id));
  return builder.Build();
}

SetId SetCollectionBuilder::Add(std::span<const ElementId> elements) {
  std::vector<ElementId>& all = collection_.elements_;
  auto begin = static_cast<std::ptrdiff_t>(all.size());
  all.insert(all.end(), elements.begin(), elements.end());
  std::sort(all.begin() + begin, all.end());
  all.erase(std::unique(all.begin() + begin, all.end()), all.end());
  collection_.offsets_.push_back(all.size());
  return static_cast<SetId>(collection_.size() - 1);
}

SetId SetCollectionBuilder::AddBag(std::span<const ElementId> elements) {
  // Re-encode the j-th occurrence of e as hash(e, j) so multiplicity
  // survives set semantics. The encoding is consistent across sets, so
  // bag-symmetric-difference equals set-symmetric-difference of the
  // encodings (up to negligible hash collisions, which can only shrink the
  // apparent distance and therefore never lose candidates). Sorting puts
  // the copies of e next to each other; which copy gets which j does not
  // change the encoded set.
  bag_scratch_.assign(elements.begin(), elements.end());
  std::sort(bag_scratch_.begin(), bag_scratch_.end());
  ElementId previous = 0;
  uint32_t j = 0;
  for (size_t i = 0; i < bag_scratch_.size(); ++i) {
    ElementId e = bag_scratch_[i];
    j = (i > 0 && e == previous) ? j + 1 : 0;
    previous = e;
    uint64_t h = HashCombine(Mix64(e), j);
    bag_scratch_[i] = static_cast<ElementId>(h ^ (h >> 32));
  }
  return Add(bag_scratch_);
}

SetCollection SetCollectionBuilder::Build() {
  SetCollection out = std::move(collection_);
  collection_ = SetCollection();
  return out;
}

CollectionStats ComputeStats(const SetCollection& collection) {
  CollectionStats stats;
  stats.num_sets = collection.size();
  stats.total_elements = collection.total_elements();
  stats.avg_set_size = collection.average_set_size();
  stats.min_set_size = collection.min_set_size();
  stats.max_set_size = collection.max_set_size();
  std::unordered_set<ElementId> distinct;
  for (SetId id = 0; id < collection.size(); ++id) {
    for (ElementId e : collection.set(id)) distinct.insert(e);
  }
  stats.distinct_elements = distinct.size();
  return stats;
}

std::string ToString(const CollectionStats& stats) {
  std::ostringstream os;
  os << "sets=" << stats.num_sets << " elements=" << stats.total_elements
     << " avg_size=" << stats.avg_set_size << " min=" << stats.min_set_size
     << " max=" << stats.max_set_size
     << " distinct=" << stats.distinct_elements;
  return os.str();
}

}  // namespace ssjoin
