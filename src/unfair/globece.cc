#include "src/unfair/globece.h"

#include <algorithm>

#include "src/util/stats.h"

namespace xfair {
namespace {

/// Scales tried per instance (grid 0..kMaxScale).
constexpr size_t kScaleSteps = 50;
constexpr double kMaxScale = 5.0;

/// Applies x + scale * direction (direction lives in range-normalized
/// space), then projects onto the feasible set.
Vector Translate(const Schema& schema, const Vector& x,
                 const Vector& direction, double scale,
                 bool respect_actionability) {
  Vector out(x.size());
  for (size_t c = 0; c < x.size(); ++c)
    out[c] = x[c] + scale * direction[c] * FeatureRange(schema.feature(c));
  ProjectToFeasible(schema, x, respect_actionability, &out);
  return out;
}

GlobalDirection FitForGroup(const Model& model, const Dataset& data,
                            const std::vector<int>& predictions, int group,
                            const GlobeCeOptions& options, Rng* rng) {
  GlobalDirection out;
  const Schema& schema = data.schema();
  const size_t d = data.num_features();

  // Members of the group currently denied the favorable outcome.
  std::vector<size_t> negatives;
  for (size_t i = 0; i < data.size(); ++i) {
    if (data.group(i) == group && predictions[i] == 0) negatives.push_back(i);
  }
  out.direction.assign(d, 0.0);
  if (negatives.empty()) return out;

  // Estimate the direction from sampled individual CF deltas
  // (range-normalized so all features are commensurate), searched by the
  // row-parallel engine and summed in sample order.
  const size_t sample_size =
      std::min(options.direction_sample, negatives.size());
  std::vector<size_t> sample =
      rng->SampleWithoutReplacement(negatives.size(), sample_size);
  for (size_t& s : sample) s = negatives[s];
  const std::vector<CounterfactualResult> results =
      CounterfactualsForRows(model, data, sample, options.cf_config, rng);
  size_t used = 0;
  for (size_t k = 0; k < sample.size(); ++k) {
    if (!results[k].valid) continue;
    const double* x = data.x().RowPtr(sample[k]);
    for (size_t c = 0; c < d; ++c) {
      out.direction[c] += (results[k].counterfactual[c] - x[c]) /
                          FeatureRange(schema.feature(c));
    }
    ++used;
  }
  const double norm = Norm2(out.direction);
  if (used == 0 || norm < 1e-12) {
    out.direction.assign(d, 0.0);
    return out;
  }
  for (double& v : out.direction) v /= norm;

  // Minimal flipping scale per member along the shared direction.
  const bool act = options.cf_config.respect_actionability;
  for (size_t i : negatives) {
    const Vector x = data.instance(i);
    for (size_t step = 1; step <= kScaleSteps; ++step) {
      const double scale = kMaxScale * static_cast<double>(step) /
                           static_cast<double>(kScaleSteps);
      const Vector moved = Translate(schema, x, out.direction, scale, act);
      if (model.Predict(moved) == kCounterfactualTargetClass) {
        out.min_scales.push_back(scale);
        break;
      }
    }
  }
  out.coverage = static_cast<double>(out.min_scales.size()) /
                 static_cast<double>(negatives.size());
  out.mean_cost = Mean(out.min_scales);
  return out;
}

}  // namespace

GlobeCeReport FitGlobeCe(const Model& model, const Dataset& data,
                         const GlobeCeOptions& options, Rng* rng) {
  XFAIR_CHECK(rng != nullptr);
  const std::vector<int> predictions = model.PredictAll(data);
  GlobeCeReport report;
  report.protected_group =
      FitForGroup(model, data, predictions, 1, options, rng);
  report.non_protected_group =
      FitForGroup(model, data, predictions, 0, options, rng);
  report.cost_gap = report.protected_group.mean_cost -
                    report.non_protected_group.mean_cost;
  report.coverage_gap = report.non_protected_group.coverage -
                        report.protected_group.coverage;
  return report;
}

}  // namespace xfair
