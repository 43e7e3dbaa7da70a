#include "src/unfair/cet.h"

#include <algorithm>
#include <cmath>

#include "src/util/table.h"

namespace xfair {
namespace {

/// Members each child of a split must keep.
constexpr size_t kMinLeaf = 8;
/// Stop splitting once the leaf's best action reaches this flip rate.
constexpr double kTargetEffectiveness = 0.95;

/// Best single-or-paired action for a member set, by effectiveness then
/// cost.
struct BestAction {
  CompositeAction action;
  double effectiveness = 0.0;
  double mean_cost = 0.0;
};

BestAction FindBestAction(const Model& model, const Dataset& data,
                          const std::vector<size_t>& members,
                          const std::vector<Action>& candidates) {
  BestAction best;
  for (const Action& a : candidates) {
    CompositeAction ca{{a}};
    const double eff = ActionEffectiveness(model, data, members, ca, 1);
    const double cost = ActionMeanCost(data, members, ca);
    if (eff > best.effectiveness + 1e-12 ||
        (std::fabs(eff - best.effectiveness) <= 1e-12 &&
         cost < best.mean_cost)) {
      best = {std::move(ca), eff, cost};
    }
  }
  // Try strengthening the best single action with one more feature.
  if (!best.action.actions.empty() && best.effectiveness < 1.0) {
    const size_t used = best.action.actions[0].feature;
    for (const Action& a : candidates) {
      if (a.feature == used) continue;
      CompositeAction ca{{best.action.actions[0], a}};
      const double eff = ActionEffectiveness(model, data, members, ca, 1);
      if (eff > best.effectiveness + 1e-9) {
        best = {std::move(ca), eff, ActionMeanCost(data, members, ca)};
      }
    }
  }
  return best;
}

struct Builder {
  const Model& model;
  const Dataset& data;
  const CetOptions& options;
  const std::vector<Action>& candidates;
  std::vector<CetNode> nodes;

  int Build(std::vector<size_t> members, size_t depth) {
    const int id = static_cast<int>(nodes.size());
    nodes.emplace_back();
    BestAction best = FindBestAction(model, data, members, candidates);
    nodes[id].action = best.action;
    nodes[id].effectiveness = best.effectiveness;
    nodes[id].mean_cost = best.mean_cost;
    nodes[id].num_members = members.size();

    if (depth >= options.max_depth ||
        best.effectiveness >= kTargetEffectiveness ||
        members.size() < 2 * kMinLeaf) {
      return id;
    }

    // Greedy split: pick the (feature, median) cut whose children's best
    // actions jointly flip the most members.
    double base_flips =
        best.effectiveness * static_cast<double>(members.size());
    double best_gain = 1e-9;
    int best_feature = -1;
    double best_threshold = 0.0;
    std::vector<size_t> best_left, best_right;
    for (size_t f = 0; f < data.num_features(); ++f) {
      Vector vals;
      for (size_t i : members) vals.push_back(data.x().At(i, f));
      std::sort(vals.begin(), vals.end());
      const double threshold = vals[vals.size() / 2];
      std::vector<size_t> left, right;
      for (size_t i : members) {
        (data.x().At(i, f) <= threshold ? left : right).push_back(i);
      }
      if (left.size() < kMinLeaf || right.size() < kMinLeaf) continue;
      const BestAction bl = FindBestAction(model, data, left, candidates);
      const BestAction br = FindBestAction(model, data, right, candidates);
      const double flips =
          bl.effectiveness * static_cast<double>(left.size()) +
          br.effectiveness * static_cast<double>(right.size());
      if (flips - base_flips > best_gain) {
        best_gain = flips - base_flips;
        best_feature = static_cast<int>(f);
        best_threshold = threshold;
        best_left = std::move(left);
        best_right = std::move(right);
      }
    }
    if (best_feature < 0) return id;
    nodes[id].feature = best_feature;
    nodes[id].threshold = best_threshold;
    const int l = Build(std::move(best_left), depth + 1);
    nodes[id].left = l;
    const int r = Build(std::move(best_right), depth + 1);
    nodes[id].right = r;
    return id;
  }
};

}  // namespace

const CompositeAction& CetReport::ActionFor(const Vector& x) const {
  XFAIR_CHECK(!nodes.empty());
  int id = 0;
  for (;;) {
    const CetNode& n = nodes[static_cast<size_t>(id)];
    if (n.feature < 0) return n.action;
    XFAIR_CHECK(static_cast<size_t>(n.feature) < x.size());
    id = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left
                                                          : n.right;
  }
}

std::string CetReport::ToString(const Schema& schema) const {
  std::string out;
  // Preorder walk with indentation.
  struct Frame {
    int id;
    size_t depth;
  };
  std::vector<Frame> stack = {{0, 0}};
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    const CetNode& n = nodes[static_cast<size_t>(id)];
    out += std::string(2 * depth, ' ');
    if (n.feature < 0) {
      out += "=> " + n.action.ToString(schema) +
             " (eff " + FormatDouble(n.effectiveness, 2) + ", cost " +
             FormatDouble(n.mean_cost, 2) + ", n=" +
             std::to_string(n.num_members) + ")\n";
    } else {
      out += "if " + schema.feature(static_cast<size_t>(n.feature)).name +
             " <= " + FormatDouble(n.threshold, 2) + ":\n";
      stack.push_back({n.right, depth + 1});
      stack.push_back({n.left, depth + 1});
    }
  }
  return out;
}

CetReport BuildCounterfactualTree(const Model& model, const Dataset& data,
                                  const CetOptions& options) {
  CetReport report;
  const std::vector<int> predictions = model.PredictAll(data);
  std::vector<size_t> affected;
  for (size_t i = 0; i < data.size(); ++i)
    if (predictions[i] == 0) affected.push_back(i);
  if (affected.empty()) {
    report.nodes.emplace_back();  // Trivial empty leaf.
    report.num_leaves = 1;
    return report;
  }
  Discretizer disc(data, options.bins);
  const std::vector<Action> candidates =
      EnumerateActions(data.schema(), disc);
  Builder builder{model, data, options, candidates, {}};
  builder.Build(affected, 0);
  report.nodes = std::move(builder.nodes);

  // Per-group evaluation: route every affected member to its leaf action.
  double flips[2] = {0, 0}, costs[2] = {0, 0};
  size_t counts[2] = {0, 0};
  for (size_t i : affected) {
    const Vector x = data.instance(i);
    const CompositeAction& action = report.ActionFor(x);
    const int g = data.group(i);
    ++counts[g];
    if (action.ApplicableTo(data.schema(), x) &&
        model.Predict(action.ApplyTo(x)) == 1) {
      flips[g] += 1.0;
      costs[g] += action.Cost(data.schema(), x);
    }
  }
  if (counts[1] > 0) {
    report.effectiveness_protected =
        flips[1] / static_cast<double>(counts[1]);
    report.mean_cost_protected =
        flips[1] > 0 ? costs[1] / flips[1] : 0.0;
  }
  if (counts[0] > 0) {
    report.effectiveness_non_protected =
        flips[0] / static_cast<double>(counts[0]);
    report.mean_cost_non_protected =
        flips[0] > 0 ? costs[0] / flips[0] : 0.0;
  }
  for (const auto& n : report.nodes)
    report.num_leaves += static_cast<size_t>(n.feature < 0);
  return report;
}

}  // namespace xfair
