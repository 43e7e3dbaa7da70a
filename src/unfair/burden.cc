#include "src/unfair/burden.h"

#include "src/obs/obs.h"

namespace xfair {
namespace {

/// True if instance i is in scope for the metric.
bool InScope(const Model& model, const Dataset& data, size_t i,
             BurdenScope scope) {
  if (model.Predict(data.instance(i)) != 0) return false;
  return scope == BurdenScope::kAllNegatives || data.label(i) == 1;
}

}  // namespace

BurdenReport ComputeBurden(const Model& model, const Dataset& data,
                           BurdenScope scope,
                           const CounterfactualConfig& config, Rng* rng) {
  XFAIR_CHECK(rng != nullptr);
  XFAIR_SPAN("burden/run");
  XFAIR_LATENCY_NS("latency/burden_ns");
  BurdenReport report;
  double sum[2] = {0.0, 0.0};
  size_t count[2] = {0, 0};
  for (size_t i = 0; i < data.size(); ++i) {
    if (!InScope(model, data, i, scope)) continue;
    const auto r = GrowingSpheresCounterfactual(
        model, data.schema(), data.instance(i), config, rng);
    if (!r.valid) {
      ++report.failures;
      continue;
    }
    const int g = data.group(i);
    sum[g] += r.distance;
    ++count[g];
  }
  report.counterfactuals_protected = count[1];
  report.counterfactuals_non_protected = count[0];
  if (count[1] > 0)
    report.burden_protected = sum[1] / static_cast<double>(count[1]);
  if (count[0] > 0)
    report.burden_non_protected = sum[0] / static_cast<double>(count[0]);
  report.burden_gap = report.burden_protected - report.burden_non_protected;
  return report;
}

NawbReport ComputeNawb(const Model& model, const Dataset& data,
                       const CounterfactualConfig& config, Rng* rng) {
  XFAIR_CHECK(rng != nullptr);
  const double num_features = static_cast<double>(data.num_features());
  double dist_sum[2] = {0.0, 0.0};
  size_t positives[2] = {0, 0};
  for (size_t i = 0; i < data.size(); ++i) {
    const int g = data.group(i);
    if (data.label(i) == 1) ++positives[g];
    if (!InScope(model, data, i, BurdenScope::kFalseNegatives)) continue;
    const auto r = GrowingSpheresCounterfactual(
        model, data.schema(), data.instance(i), config, rng);
    if (r.valid) dist_sum[g] += r.distance;
  }
  NawbReport report;
  if (positives[1] > 0) {
    report.nawb_protected =
        dist_sum[1] / (num_features * static_cast<double>(positives[1]));
  }
  if (positives[0] > 0) {
    report.nawb_non_protected =
        dist_sum[0] / (num_features * static_cast<double>(positives[0]));
  }
  report.nawb_gap = report.nawb_protected - report.nawb_non_protected;
  return report;
}

}  // namespace xfair
