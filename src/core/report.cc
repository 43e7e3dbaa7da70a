#include "src/core/report.h"

#include <algorithm>

#include "src/fairness/group_metrics.h"
#include "src/fairness/tradeoff.h"
#include "src/obs/obs.h"
#include "src/unfair/burden.h"
#include "src/unfair/facts.h"
#include "src/unfair/fairness_shap.h"
#include "src/util/table.h"

namespace xfair {
namespace {

/// Number of parity-gap contributors to list.
constexpr size_t kTopContributors = 3;

/// The four-fifths rule (29 CFR 1607.4(D)): the lower group selection
/// rate over the higher one fails below 0.8. Symmetric in which group is
/// coded 1, and undefined when there is no rate to compare against.
std::string FourFifthsVerdict(const GroupFairnessReport& group) {
  if (group.single_group) return "undefined (only one group is present)";
  const double rate_pos = group.protected_group.positive_rate();
  const double rate_neg = group.non_protected_group.positive_rate();
  const double high = std::max(rate_pos, rate_neg);
  if (high <= 0.0) return "undefined (no group receives favorable outcomes)";
  const double ratio = std::min(rate_pos, rate_neg) / high;
  std::string out = FormatDouble(ratio) +
                    (ratio < 0.8 ? " FAILS" : " passes") + " the 80% rule";
  if (rate_pos != rate_neg) {
    out += rate_pos < rate_neg ? " (disadvantaged group: G+)"
                               : " (disadvantaged group: G-)";
  }
  return out;
}

}  // namespace

std::string WriteAuditReport(const Model& model, const Dataset& data,
                             const AuditReportOptions& options) {
  XFAIR_SPAN("report/audit");
  std::string out = "# xfair audit report\n\n";
  out += "Model: " + model.name() + "; instances: " +
         std::to_string(data.size()) + "; protected share: " +
         FormatDouble(static_cast<double>(data.GroupIndices(1).size()) /
                          std::max<size_t>(1, data.size()),
                      3) +
         "\n\n";

  // Group fairness metrics.
  const GroupFairnessReport group = EvaluateGroupFairness(model, data);
  out += "## Group fairness (Figure 1 metrics)\n\n";
  out += group.ToString();
  out += "\nVerdict: disparate impact " + FourFifthsVerdict(group) + ".\n\n";

  // Effort disparity (burden).
  if (options.include_counterfactual_sections) {
    Rng rng(options.seed);
    const BurdenReport burden =
        ComputeBurden(model, data, BurdenScope::kAllNegatives, {}, &rng);
    out += "## Counterfactual burden [72]\n\n";
    out += "Protected group burden " +
           FormatDouble(burden.burden_protected) + " vs non-protected " +
           FormatDouble(burden.burden_non_protected) + " (gap " +
           FormatDouble(burden.burden_gap) + "; " +
           std::to_string(burden.failures) + " searches failed).\n\n";
  }

  // Feature attribution of the gap, decomposed slice-scale in one
  // FairnessShapBatch call (identical to ExplainParityWithShapley over
  // the whole dataset, routed through the batched audit path).
  {
    FairnessShapOptions shap_opts;
    shap_opts.seed = options.seed;
    std::vector<size_t> all(data.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    const auto shap = FairnessShapBatch(model, data, all, shap_opts);
    out += "## Parity-gap contributors (fairness Shapley [81])\n\n";
    AsciiTable t({"feature", "contribution"});
    const size_t k =
        std::min(kTopContributors, shap.ranked_features.size());
    for (size_t i = 0; i < k; ++i) {
      const size_t c = shap.ranked_features[i];
      t.AddRow({shap.feature_names[c],
                FormatDouble(shap.contributions[c])});
    }
    out += t.ToString() + "\n";
  }

  // Subgroup recourse bias.
  if (options.include_counterfactual_sections) {
    FactsOptions facts_opts;
    facts_opts.top_k = options.top_subgroups;
    const auto facts = RunFacts(model, data, facts_opts);
    out += "## Recourse-bias subgroups (FACTS [77])\n\n";
    if (facts.ranked_subgroups.empty()) {
      out += "No auditable subgroups (too few denied instances).\n\n";
    } else {
      AsciiTable t({"subgroup", "eff G+", "eff G-", "unfairness"});
      for (const auto& sg : facts.ranked_subgroups) {
        t.AddRow({sg.description,
                  FormatDouble(sg.best_effectiveness_protected),
                  FormatDouble(sg.best_effectiveness_non_protected),
                  FormatDouble(sg.unfairness)});
      }
      out += t.ToString() + "\n";
    }
  }

  // Combined tradeoff.
  const TradeoffScore score = EvaluateTradeoff(model, data);
  out += "## Utility / fairness / explainability tradeoff\n\n";
  out += "utility " + FormatDouble(score.utility) + ", fairness " +
         FormatDouble(score.fairness) + ", explainability " +
         FormatDouble(score.explainability) + " -> combined " +
         FormatDouble(score.combined) + "\n";
  return out;
}

}  // namespace xfair
