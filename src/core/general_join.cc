#include "core/general_join.h"

#include <span>
#include <sstream>

#include "core/kernels/hash_kernels.h"
#include "util/check.h"
#include "util/hashing.h"

namespace ssjoin {

namespace {
constexpr Signature kEmptySetSignature = 0x6E4A'0000'E317'70ADULL;
}  // namespace

Result<GeneralPartEnumScheme> GeneralPartEnumScheme::Create(
    std::shared_ptr<const Predicate> predicate,
    const GeneralPartEnumParams& params) {
  if (!predicate) {
    return Status::InvalidArgument("GeneralPartEnum: predicate is null");
  }
  if (params.max_set_size == 0) {
    return Status::InvalidArgument(
        "GeneralPartEnum: max_set_size must be >= the largest input set");
  }
  GeneralPartEnumScheme scheme;
  scheme.predicate_ = std::move(predicate);
  scheme.max_set_size_ = params.max_set_size;
  scheme.intervals_ =
      BuildJoinableSizeIntervals(*scheme.predicate_, params.max_set_size);

  std::function<PartEnumParams(uint32_t)> chooser = params.chooser;
  if (!chooser) {
    chooser = [](uint32_t k) { return PartEnumParams::Default(k); };
  }

  // Sub-instance i covers sizes in I_{i-1} ∪ I_i (plus one trailing
  // instance for the last interval's (i+1)-tags, which only ever holds
  // pairs from within I_last).
  size_t num_instances = scheme.intervals_.size() + 1;
  for (size_t i = 0; i < num_instances; ++i) {
    uint32_t lo, hi;
    if (i < scheme.intervals_.size()) {
      lo = i > 0 ? scheme.intervals_[i - 1].lo : scheme.intervals_[i].lo;
      hi = scheme.intervals_[i].hi;
    } else {
      lo = scheme.intervals_.back().lo;
      hi = scheme.intervals_.back().hi;
    }
    std::optional<uint32_t> k =
        scheme.predicate_->MaxHammingForSizeRange(lo, hi);
    // No joinable pair within this instance: a k=0 PartEnum is a valid
    // placeholder (its collisions are discarded by the post-filter).
    auto instance = PartEnumScheme::Create(
        chooser(k.value_or(0)).FittedTo(k.value_or(0), params.seed));
    if (!instance.ok()) return instance.status();
    scheme.instances_.push_back(
        std::make_unique<PartEnumScheme>(std::move(instance).value()));
  }
  return scheme;
}

std::string GeneralPartEnumScheme::Name() const {
  std::ostringstream os;
  os << "GPEN(" << predicate_->Name() << ",intervals=" << intervals_.size()
     << ")";
  return os.str();
}

std::vector<uint32_t> GeneralPartEnumScheme::InstanceThresholds() const {
  std::vector<uint32_t> out;
  out.reserve(instances_.size());
  for (const auto& instance : instances_) {
    out.push_back(instance->params().k);
  }
  return out;
}

void GeneralPartEnumScheme::Generate(std::span<const ElementId> set,
                                     std::vector<Signature>* out) const {
  if (set.empty()) {
    // Empty sets can only be covered against each other (see predicate.h:
    // a nonempty partner needs positive overlap to join, which an empty
    // set cannot supply under this predicate class).
    out->push_back(kEmptySetSignature);
    return;
  }
  SSJOIN_CHECK(set.size() <= max_set_size_,
               "set of {} elements exceeds the indexed maximum {}",
               set.size(), max_set_size_);
  uint32_t size = static_cast<uint32_t>(set.size());
  size_t i = 0;
  while (i + 1 < intervals_.size() && !intervals_[i].Contains(size)) ++i;
  SSJOIN_CHECK(intervals_[i].Contains(size),
               "size {} not covered by any joinable-size interval "
               "(scan stopped at interval {} of {})",
               size, i, intervals_.size());
  for (size_t tag : {i, i + 1}) {
    size_t before = out->size();
    instances_[tag]->Generate(set, out);
    // Batched tag combine (4-wide, core/kernels/hash_kernels.h);
    // value-exact with HashCombine(Mix64(tag + 1), sig) per signature.
    kernels::HashCombineBatch(
        Mix64(static_cast<uint64_t>(tag) + 1),
        std::span<Signature>(out->data() + before, out->size() - before));
  }
}

}  // namespace ssjoin
