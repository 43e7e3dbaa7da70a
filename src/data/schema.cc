#include "src/data/schema.h"

#include "src/util/check.h"

namespace xfair {

double FeatureRange(const FeatureSpec& spec) {
  const double r = spec.upper - spec.lower;
  if (r <= 0.0 || r > 1e29) return 1.0;
  return r;
}

Schema::Schema(std::vector<FeatureSpec> features, int sensitive_index)
    : features_(std::move(features)), sensitive_index_(sensitive_index) {
  XFAIR_CHECK(sensitive_index_ >= -1 &&
              sensitive_index_ < static_cast<int>(features_.size()));
  for (const auto& f : features_) {
    if (f.kind == FeatureKind::kCategorical) XFAIR_CHECK(f.arity >= 2);
    XFAIR_CHECK(f.lower <= f.upper);
  }
}

const FeatureSpec& Schema::feature(size_t i) const {
  XFAIR_CHECK(i < features_.size());
  return features_[i];
}

Result<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < features_.size(); ++i)
    if (features_[i].name == name) return i;
  return Status::NotFound("no feature named " + name);
}

Schema Schema::WithoutFeature(size_t i) const {
  XFAIR_CHECK(i < features_.size());
  std::vector<FeatureSpec> kept;
  kept.reserve(features_.size() - 1);
  for (size_t j = 0; j < features_.size(); ++j)
    if (j != i) kept.push_back(features_[j]);
  int sens = sensitive_index_;
  if (sens == static_cast<int>(i)) {
    sens = -1;
  } else if (sens > static_cast<int>(i)) {
    --sens;
  }
  return Schema(std::move(kept), sens);
}

bool Schema::MoveAllowed(size_t i, double delta) const {
  XFAIR_CHECK(i < features_.size());
  if (delta == 0.0) return true;
  switch (features_[i].actionability) {
    case Actionability::kAny:
      return true;
    case Actionability::kIncreaseOnly:
      return delta > 0.0;
    case Actionability::kDecreaseOnly:
      return delta < 0.0;
    case Actionability::kImmutable:
      return false;
  }
  return false;
}

}  // namespace xfair
