#include "src/unfair/burden.h"

#include "src/obs/obs.h"

namespace xfair {
namespace {

/// Valid counterfactual distances summed per group, over the rows in
/// scope, in row order.
struct GroupDistances {
  double sum[2] = {0.0, 0.0};
  size_t count[2] = {0, 0};
  size_t failures = 0;  ///< Rows in scope where no CF was found.
};

/// Picks the rows in scope from one batched prediction pass, searches
/// them all with the row-parallel engine, and reduces in row order.
GroupDistances SearchInScope(const Model& model, const Dataset& data,
                             BurdenScope scope,
                             const CounterfactualConfig& config, Rng* rng) {
  XFAIR_CHECK(rng != nullptr);
  const std::vector<int> predictions = model.PredictAll(data);
  std::vector<size_t> rows;
  for (size_t i = 0; i < data.size(); ++i) {
    if (predictions[i] == 0 &&
        (scope == BurdenScope::kAllNegatives || data.label(i) == 1))
      rows.push_back(i);
  }
  const std::vector<CounterfactualResult> results =
      CounterfactualsForRows(model, data, rows, config, rng);
  GroupDistances out;
  for (size_t k = 0; k < rows.size(); ++k) {
    if (!results[k].valid) {
      ++out.failures;
      continue;
    }
    const int g = data.group(rows[k]);
    out.sum[g] += results[k].distance;
    ++out.count[g];
  }
  return out;
}

}  // namespace

BurdenReport ComputeBurden(const Model& model, const Dataset& data,
                           BurdenScope scope,
                           const CounterfactualConfig& config, Rng* rng) {
  XFAIR_SPAN("burden/run");
  XFAIR_LATENCY_NS("latency/burden_ns");
  const GroupDistances d = SearchInScope(model, data, scope, config, rng);
  BurdenReport report;
  report.counterfactuals_protected = d.count[1];
  report.counterfactuals_non_protected = d.count[0];
  report.failures = d.failures;
  if (d.count[1] > 0)
    report.burden_protected = d.sum[1] / static_cast<double>(d.count[1]);
  if (d.count[0] > 0)
    report.burden_non_protected = d.sum[0] / static_cast<double>(d.count[0]);
  report.burden_gap = report.burden_protected - report.burden_non_protected;
  return report;
}

NawbReport ComputeNawb(const Model& model, const Dataset& data,
                       const CounterfactualConfig& config, Rng* rng) {
  const GroupDistances d =
      SearchInScope(model, data, BurdenScope::kFalseNegatives, config, rng);
  const double num_features = static_cast<double>(data.num_features());
  size_t positives[2] = {0, 0};
  for (size_t i = 0; i < data.size(); ++i)
    if (data.label(i) == 1) ++positives[data.group(i)];
  NawbReport report;
  if (positives[1] > 0) {
    report.nawb_protected =
        d.sum[1] / (num_features * static_cast<double>(positives[1]));
  }
  if (positives[0] > 0) {
    report.nawb_non_protected =
        d.sum[0] / (num_features * static_cast<double>(positives[0]));
  }
  report.nawb_gap = report.nawb_protected - report.nawb_non_protected;
  return report;
}

}  // namespace xfair
