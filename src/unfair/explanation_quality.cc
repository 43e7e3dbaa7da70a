#include "src/unfair/explanation_quality.h"

#include "src/util/stats.h"

namespace xfair {
namespace {

/// Perturbation scale (fraction of feature stddev) for the stability
/// probe.
constexpr double kStabilityPerturbation = 0.1;

}  // namespace

ExplanationQualityReport AuditExplanationQuality(
    const Model& model, const Dataset& data,
    const ExplanationQualityOptions& options, Rng* rng) {
  XFAIR_CHECK(rng != nullptr);
  XFAIR_CHECK(options.sample_per_group > 0);
  ExplanationQualityReport report;

  // Per-feature perturbation scales for the stability probe.
  Vector scales(data.num_features());
  for (size_t c = 0; c < data.num_features(); ++c) {
    const double sd = Stddev(data.x().Col(c));
    scales[c] = (sd > 1e-12 ? sd : 1.0) * kStabilityPerturbation;
  }

  for (int group : {0, 1}) {
    const auto members = data.GroupIndices(group);
    if (members.empty()) continue;
    const size_t n = std::min(options.sample_per_group, members.size());
    const auto picks = rng->SampleWithoutReplacement(members.size(), n);

    RunningStats fidelity, instability, sparsity;
    for (size_t p : picks) {
      const size_t i = members[p];
      const Vector x = data.instance(i);

      // Fidelity + stability via local surrogates.
      const LocalSurrogate base =
          FitLocalSurrogate(model, data, x, rng);
      fidelity.Add(base.fidelity);
      Vector xp = x;
      for (size_t c = 0; c < x.size(); ++c)
        xp[c] += rng->Normal(0.0, scales[c]);
      const LocalSurrogate shifted =
          FitLocalSurrogate(model, data, xp, rng);
      instability.Add(Norm2(Sub(base.coefficients, shifted.coefficients)));

      // Counterfactual sparsity (only defined for denied instances).
      if (model.Predict(x) == 0) {
        auto cf = GrowingSpheresCounterfactual(model, data.schema(), x,
                                               CounterfactualConfig{}, rng);
        if (cf.valid) sparsity.Add(static_cast<double>(cf.sparsity));
      }
    }
    if (group == 1) {
      report.fidelity_protected = fidelity.mean();
      report.instability_protected = instability.mean();
      report.cf_sparsity_protected = sparsity.mean();
      report.sampled_protected = fidelity.count();
    } else {
      report.fidelity_non_protected = fidelity.mean();
      report.instability_non_protected = instability.mean();
      report.cf_sparsity_non_protected = sparsity.mean();
      report.sampled_non_protected = fidelity.count();
    }
  }
  report.fidelity_gap =
      report.fidelity_non_protected - report.fidelity_protected;
  report.instability_gap =
      report.instability_protected - report.instability_non_protected;
  report.cf_sparsity_gap =
      report.cf_sparsity_protected - report.cf_sparsity_non_protected;
  return report;
}

}  // namespace xfair
