#include "src/mitigate/counterfactual_fair.h"

#include <algorithm>

namespace xfair {

double FeatureSubsetModel::PredictProba(const Vector& x) const {
  Vector selected(columns_.size());
  for (size_t k = 0; k < columns_.size(); ++k) {
    XFAIR_CHECK(columns_[k] < x.size());
    selected[k] = x[columns_[k]];
  }
  return inner_.PredictProba(selected);
}

Result<FeatureSubsetModel> TrainCounterfactuallyFairModel(
    const CausalWorld& world, const Dataset& data) {
  if (data.num_features() != world.scm.num_vars()) {
    return Status::InvalidArgument(
        "dataset columns must align with the world's SCM nodes");
  }
  const auto descendants = world.scm.dag().Descendants(world.sensitive);
  std::vector<size_t> safe;
  for (size_t c = 0; c < data.num_features(); ++c) {
    if (c == world.sensitive) continue;
    if (std::find(descendants.begin(), descendants.end(), c) !=
        descendants.end()) {
      continue;
    }
    safe.push_back(c);
  }
  if (safe.empty()) {
    return Status::FailedPrecondition(
        "every feature is a descendant of the sensitive attribute");
  }

  // Project the training data onto the safe columns.
  Matrix x(data.size(), safe.size());
  std::vector<FeatureSpec> specs;
  for (size_t k = 0; k < safe.size(); ++k) {
    specs.push_back(data.schema().feature(safe[k]));
    for (size_t i = 0; i < data.size(); ++i)
      x.At(i, k) = data.x().At(i, safe[k]);
  }
  Dataset projected(Schema(std::move(specs), -1), std::move(x),
                    data.labels(), data.groups());
  LogisticRegression inner;
  XFAIR_RETURN_IF_ERROR(inner.Fit(projected));
  return FeatureSubsetModel(std::move(inner), std::move(safe));
}

}  // namespace xfair
