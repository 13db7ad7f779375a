#include "text/idf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

namespace ssjoin {

IdfWeights IdfWeights::Build(
    std::initializer_list<const SetCollection*> inputs) {
  IdfWeights idf;
  std::unordered_map<ElementId, uint32_t> doc_freq;
  for (const SetCollection* input : inputs) {
    idf.num_documents_ += input->size();
    for (SetId id = 0; id < input->size(); ++id) {
      for (ElementId e : input->set(id)) ++doc_freq[e];
    }
  }
  double n = std::max<double>(1.0, static_cast<double>(idf.num_documents_));
  idf.unseen_weight_ = std::log(n * 2.0);
  size_t capacity = std::bit_ceil(std::max<size_t>(2, 2 * doc_freq.size()));
  idf.mask_ = capacity - 1;
  idf.slots_.assign(capacity, Slot{0, 0, 0});
  for (const auto& [e, df] : doc_freq) {
    size_t i = Mix64(e) & idf.mask_;
    while (idf.slots_[i].df != 0) i = (i + 1) & idf.mask_;
    idf.slots_[i] = Slot{e, df, std::log(n / static_cast<double>(df))};
  }
  return idf;
}

IdfWeights IdfWeights::Compute(const SetCollection& collection) {
  return Build({&collection});
}

IdfWeights IdfWeights::Compute(const SetCollection& r,
                               const SetCollection& s) {
  return Build({&r, &s});
}

double IdfWeights::DefaultPruningThreshold() const {
  return std::log(std::max<double>(2.0, static_cast<double>(num_documents_)));
}

}  // namespace ssjoin
