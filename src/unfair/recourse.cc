#include "src/unfair/recourse.h"

#include <cmath>

namespace xfair {
namespace {

/// Candidate deltas per variable, in units of that variable's noise std.
constexpr double kDeltaGrid[] = {0.5, 1.0, 1.5, 2.0, 3.0};

/// Candidate interventions on one node: value +/- delta * noise_std.
std::vector<Intervention> NodeCandidates(const Scm& scm, const Vector& x,
                                         size_t node) {
  std::vector<Intervention> out;
  const double scale = std::max(scm.noise_std(node), 1e-6);
  for (double d : kDeltaGrid) {
    out.push_back({node, x[node] + d * scale});
    out.push_back({node, x[node] - d * scale});
  }
  return out;
}

double InterventionCost(const Scm& scm, const Vector& x,
                        const std::vector<Intervention>& dos) {
  double cost = 0.0;
  for (const auto& d : dos) {
    cost += std::fabs(d.value - x[d.node]) /
            std::max(scm.noise_std(d.node), 1e-6);
  }
  return cost;
}

}  // namespace

RecourseAction FindCausalRecourse(const Model& model, const Scm& scm,
                                  const Vector& x,
                                  const std::vector<size_t>& actionable_nodes) {
  RecourseAction best;
  if (model.Predict(x) == 1) {
    best.found = true;
    best.resulting_state = x;
    return best;
  }
  auto consider = [&](const std::vector<Intervention>& dos) {
    const Vector cf = scm.Counterfactual(x, dos);
    if (model.Predict(cf) != 1) return;
    const double cost = InterventionCost(scm, x, dos);
    if (!best.found || cost < best.cost) {
      best.found = true;
      best.cost = cost;
      best.interventions = dos;
      best.resulting_state = cf;
    }
  };

  // Single interventions.
  for (size_t node : actionable_nodes) {
    for (const auto& iv : NodeCandidates(scm, x, node)) consider({iv});
  }
  // Then pairs.
  for (size_t a = 0; a < actionable_nodes.size(); ++a) {
    for (size_t b = a + 1; b < actionable_nodes.size(); ++b) {
      for (const auto& iva : NodeCandidates(scm, x, actionable_nodes[a])) {
        for (const auto& ivb : NodeCandidates(scm, x, actionable_nodes[b])) {
          consider({iva, ivb});
        }
      }
    }
  }
  if (!best.found) best.resulting_state = x;
  return best;
}

GroupRecourseReport EvaluateGroupRecourse(const LogisticRegression& model,
                                          const Dataset& data) {
  GroupRecourseReport report;
  double sum[2] = {0.0, 0.0};
  size_t count[2] = {0, 0};
  for (size_t i = 0; i < data.size(); ++i) {
    const Vector x = data.instance(i);
    if (model.Predict(x) != 0) continue;
    const int g = data.group(i);
    sum[g] += model.DistanceToBoundary(x);
    ++count[g];
  }
  report.negatives_protected = count[1];
  report.negatives_non_protected = count[0];
  if (count[1] > 0)
    report.recourse_protected = sum[1] / static_cast<double>(count[1]);
  if (count[0] > 0)
    report.recourse_non_protected = sum[0] / static_cast<double>(count[0]);
  report.recourse_gap =
      report.recourse_protected - report.recourse_non_protected;
  return report;
}

CausalRecourseFairnessReport EvaluateCausalRecourseFairness(
    const Model& model, const CausalWorld& world,
    const std::vector<size_t>& actionable_nodes, size_t num_samples,
    uint64_t seed) {
  XFAIR_CHECK(num_samples > 0);
  CausalRecourseFairnessReport report;
  Rng rng(seed);
  double cost_sum[2] = {0.0, 0.0};
  size_t cost_count[2] = {0, 0};
  double twin_diff_sum = 0.0;
  size_t twin_count = 0;

  for (size_t n = 0; n < num_samples; ++n) {
    const double g = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    const Vector x =
        world.scm.SampleDo({{world.sensitive, g}}, &rng);
    if (model.Predict(x) != 0) continue;
    const RecourseAction own =
        FindCausalRecourse(model, world.scm, x, actionable_nodes);
    if (!own.found) continue;
    const int gi = static_cast<int>(g);
    cost_sum[gi] += own.cost;
    ++cost_count[gi];
    ++report.evaluated;

    // Counterfactual twin in the other group.
    const Vector twin =
        world.scm.Counterfactual(x, {{world.sensitive, 1.0 - g}});
    if (model.Predict(twin) != 0) {
      // The twin needs no recourse at all: maximal individual-level
      // unfairness of recourse cost (own cost vs 0).
      twin_diff_sum += own.cost;
      ++twin_count;
      continue;
    }
    const RecourseAction twin_recourse =
        FindCausalRecourse(model, world.scm, twin, actionable_nodes);
    if (!twin_recourse.found) continue;
    twin_diff_sum += std::fabs(own.cost - twin_recourse.cost);
    ++twin_count;
  }
  if (cost_count[1] > 0) {
    report.mean_cost_protected =
        cost_sum[1] / static_cast<double>(cost_count[1]);
  }
  if (cost_count[0] > 0) {
    report.mean_cost_non_protected =
        cost_sum[0] / static_cast<double>(cost_count[0]);
  }
  report.group_gap =
      report.mean_cost_protected - report.mean_cost_non_protected;
  if (twin_count > 0) {
    report.individual_unfairness =
        twin_diff_sum / static_cast<double>(twin_count);
  }
  return report;
}

}  // namespace xfair
