#include "src/unfair/precof.h"

#include <algorithm>
#include <cmath>

namespace xfair {
namespace {

PrecofReport BuildReport(const Model& model, const Dataset& data,
                         const CounterfactualConfig& config, Rng* rng) {
  const size_t d = data.num_features();
  PrecofReport report;
  report.feature_names.reserve(d);
  for (size_t c = 0; c < d; ++c)
    report.feature_names.push_back(data.schema().feature(c).name);
  Vector changed[2] = {Vector(d, 0.0), Vector(d, 0.0)};
  size_t count[2] = {0, 0};

  // Every denied row, from one batched pass, searched by the row-parallel
  // engine; the change counts reduce in row order.
  const std::vector<int> predictions = model.PredictAll(data);
  std::vector<size_t> rows;
  for (size_t i = 0; i < data.size(); ++i)
    if (predictions[i] == 0) rows.push_back(i);
  const std::vector<CounterfactualResult> results =
      CounterfactualsForRows(model, data, rows, config, rng);
  for (size_t k = 0; k < rows.size(); ++k) {
    const CounterfactualResult& r = results[k];
    if (!r.valid) continue;
    const int g = data.group(rows[k]);
    const double* x = data.x().RowPtr(rows[k]);
    ++count[g];
    for (size_t c = 0; c < d; ++c) {
      if (std::fabs(r.counterfactual[c] - x[c]) > 1e-12)
        changed[g][c] += 1.0;
    }
  }
  report.counterfactuals_protected = count[1];
  report.counterfactuals_non_protected = count[0];
  report.change_freq_protected.assign(d, 0.0);
  report.change_freq_non_protected.assign(d, 0.0);
  for (size_t c = 0; c < d; ++c) {
    if (count[1] > 0)
      report.change_freq_protected[c] =
          changed[1][c] / static_cast<double>(count[1]);
    if (count[0] > 0)
      report.change_freq_non_protected[c] =
          changed[0][c] / static_cast<double>(count[0]);
  }
  report.frequency_gap.resize(d);
  for (size_t c = 0; c < d; ++c) {
    report.frequency_gap[c] = std::fabs(report.change_freq_protected[c] -
                                        report.change_freq_non_protected[c]);
  }
  report.ranked_features.resize(d);
  for (size_t c = 0; c < d; ++c) report.ranked_features[c] = c;
  std::sort(report.ranked_features.begin(), report.ranked_features.end(),
            [&](size_t a, size_t b) {
              return report.frequency_gap[a] > report.frequency_gap[b];
            });
  return report;
}

}  // namespace

PrecofReport PrecofExplicitBias(const Model& model, const Dataset& data,
                                Rng* rng) {
  XFAIR_CHECK(rng != nullptr);
  CounterfactualConfig config;
  config.respect_actionability = false;  // Sensitive attribute may flip.
  return BuildReport(model, data, config, rng);
}

PrecofReport PrecofImplicitBias(const Dataset& data, Rng* rng) {
  XFAIR_CHECK(rng != nullptr);
  const int sens = data.schema().sensitive_index();
  XFAIR_CHECK_MSG(sens >= 0, "data must carry its sensitive column");
  Dataset blind = data.WithoutFeature(static_cast<size_t>(sens));
  LogisticRegression model;
  XFAIR_CHECK(model.Fit(blind).ok());
  CounterfactualConfig config;  // Actionability on: realistic recourse.
  return BuildReport(model, blind, config, rng);
}

}  // namespace xfair
