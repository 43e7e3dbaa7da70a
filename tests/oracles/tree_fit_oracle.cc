#include "tests/oracles/tree_fit_oracle.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"
#include "src/util/rng.h"
#include "tests/oracles/tree_walk_oracle.h"

namespace xfair::oracles {
namespace {

double Sigmoid(double z) {
  if (z >= 0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

/// Builds one variance-reduction regression tree on `targets` and returns
/// its node array. Leaf values use the Newton step for logistic loss:
/// sum(residual) / sum(p(1-p)).
struct TreeBuilder {
  const Dataset& data;
  const Vector& residuals;  // y - p per instance.
  const Vector& hessians;   // p (1 - p) per instance.
  const GbmOptions& options;
  std::vector<GbmNode> nodes;

  int Build(std::vector<size_t>& indices, size_t depth) {
    const int id = static_cast<int>(nodes.size());
    nodes.emplace_back();
    double grad_sum = 0.0, hess_sum = 0.0;
    for (size_t i : indices) {
      grad_sum += residuals[i];
      hess_sum += hessians[i];
    }
    nodes[id].value = grad_sum / std::max(hess_sum, 1e-12);
    nodes[id].cover = static_cast<double>(indices.size());

    if (depth >= options.max_depth ||
        indices.size() < 2 * options.min_samples_leaf) {
      return id;
    }

    // Best split by squared-residual variance reduction.
    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;
    std::vector<std::pair<double, size_t>> order;
    order.reserve(indices.size());
    const double total_sum = grad_sum;
    const double total_n = static_cast<double>(indices.size());
    for (size_t f = 0; f < data.num_features(); ++f) {
      order.clear();
      for (size_t i : indices) order.emplace_back(data.x().At(i, f), i);
      std::sort(order.begin(), order.end());
      double left_sum = 0.0;
      size_t left_n = 0;
      for (size_t k = 0; k + 1 < order.size(); ++k) {
        left_sum += residuals[order[k].second];
        ++left_n;
        if (order[k].first == order[k + 1].first) continue;
        if (left_n < options.min_samples_leaf ||
            order.size() - left_n < options.min_samples_leaf) {
          continue;
        }
        const double right_sum = total_sum - left_sum;
        const double right_n = total_n - static_cast<double>(left_n);
        const double gain =
            left_sum * left_sum / static_cast<double>(left_n) +
            right_sum * right_sum / right_n -
            total_sum * total_sum / total_n;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (order[k].first + order[k + 1].first);
        }
      }
    }
    if (best_feature < 0) return id;

    std::vector<size_t> left_idx, right_idx;
    for (size_t i : indices) {
      (data.x().At(i, static_cast<size_t>(best_feature)) <= best_threshold
           ? left_idx
           : right_idx)
          .push_back(i);
    }
    if (left_idx.empty() || right_idx.empty()) return id;
    nodes[id].feature = best_feature;
    nodes[id].threshold = best_threshold;
    const int l = Build(left_idx, depth + 1);
    nodes[id].left = l;
    const int r = Build(right_idx, depth + 1);
    nodes[id].right = r;
    return id;
  }
};

/// Gini impurity of a weighted binary label distribution.
double Gini(double pos_weight, double total_weight) {
  if (total_weight <= 0.0) return 0.0;
  const double p = pos_weight / total_weight;
  return 2.0 * p * (1.0 - p);
}

struct CartBuilder {
  std::vector<TreeNode> nodes_;

  int Build(const Dataset& data, const Vector& weights,
            std::vector<size_t>& indices, size_t depth,
            const DecisionTreeOptions& options, Rng* rng) {
    double total = 0.0, pos = 0.0;
    for (size_t i : indices) {
      total += weights[i];
      pos += weights[i] * static_cast<double>(data.label(i));
    }
    const int node_id = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    nodes_[node_id].proba = total > 0.0 ? pos / total : 0.0;
    nodes_[node_id].weight = total;

    const bool pure = pos <= 1e-12 || pos >= total - 1e-12;
    if (depth >= options.max_depth || pure ||
        indices.size() < 2 * options.min_samples_leaf) {
      return node_id;
    }

    // Candidate features: all, or a random subset for forests.
    std::vector<size_t> features;
    const size_t d = data.num_features();
    if (options.max_features > 0 && options.max_features < d) {
      features = rng->SampleWithoutReplacement(d, options.max_features);
    } else {
      features.resize(d);
      for (size_t c = 0; c < d; ++c) features[c] = c;
    }

    const double parent_impurity = Gini(pos, total);
    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;

    // Sort-and-scan for the best split per candidate feature.
    std::vector<std::pair<double, size_t>> order;
    order.reserve(indices.size());
    for (size_t f : features) {
      order.clear();
      for (size_t i : indices) order.emplace_back(data.x().At(i, f), i);
      std::sort(order.begin(), order.end());
      double left_total = 0.0, left_pos = 0.0;
      size_t left_count = 0;
      for (size_t k = 0; k + 1 < order.size(); ++k) {
        const size_t i = order[k].second;
        left_total += weights[i];
        left_pos += weights[i] * static_cast<double>(data.label(i));
        ++left_count;
        if (order[k].first == order[k + 1].first) continue;  // No cut here.
        if (left_count < options.min_samples_leaf ||
            order.size() - left_count < options.min_samples_leaf) {
          continue;
        }
        const double right_total = total - left_total;
        const double right_pos = pos - left_pos;
        const double child_impurity =
            (left_total * Gini(left_pos, left_total) +
             right_total * Gini(right_pos, right_total)) /
            total;
        const double gain = parent_impurity - child_impurity;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (order[k].first + order[k + 1].first);
        }
      }
    }

    if (best_feature < 0) return node_id;  // No useful split found.

    std::vector<size_t> left_idx, right_idx;
    for (size_t i : indices) {
      if (data.x().At(i, static_cast<size_t>(best_feature)) <=
          best_threshold) {
        left_idx.push_back(i);
      } else {
        right_idx.push_back(i);
      }
    }
    if (left_idx.empty() || right_idx.empty()) return node_id;

    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;
    const int left = Build(data, weights, left_idx, depth + 1, options, rng);
    nodes_[node_id].left = left;
    const int right =
        Build(data, weights, right_idx, depth + 1, options, rng);
    nodes_[node_id].right = right;
    return node_id;
  }
};

}  // namespace

GbmFit FitGbmSortPerNode(const Dataset& data, const GbmOptions& options) {
  const size_t n = data.size();
  XFAIR_CHECK(n > 0 && options.num_rounds > 0);
  GbmFit fit;

  // Bias: log-odds of the base rate (clamped away from infinities).
  double pos = 0.0;
  for (size_t i = 0; i < n; ++i) pos += data.label(i);
  const double rate =
      std::min(std::max(pos / static_cast<double>(n), 1e-6), 1.0 - 1e-6);
  fit.bias = std::log(rate / (1.0 - rate));

  Vector margins(n, fit.bias), residuals(n), hessians(n);
  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;

  for (size_t round = 0; round < options.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      const double p = Sigmoid(margins[i]);
      residuals[i] = static_cast<double>(data.label(i)) - p;
      hessians[i] = std::max(p * (1.0 - p), 1e-6);
    }
    TreeBuilder builder{data, residuals, hessians, options, {}};
    std::vector<size_t> indices = all;
    builder.Build(indices, 0);
    for (size_t i = 0; i < n; ++i) {
      margins[i] += kGbmLearningRate *
                    WalkNodes(builder.nodes, &GbmNode::value,
                              data.x().RowPtr(i), data.num_features());
    }
    fit.trees.push_back(std::move(builder.nodes));
  }
  return fit;
}

std::vector<TreeNode> FitTreeSortPerNode(const Dataset& data,
                                         const DecisionTreeOptions& options,
                                         const Vector& instance_weights) {
  XFAIR_CHECK(instance_weights.empty() ||
              instance_weights.size() == data.size());
  Vector weights = instance_weights;
  if (weights.empty()) weights.assign(data.size(), 1.0);
  std::vector<size_t> indices;
  indices.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i)
    if (weights[i] > 0.0) indices.push_back(i);
  XFAIR_CHECK(!indices.empty());
  CartBuilder builder;
  Rng rng(options.feature_seed);
  builder.Build(data, weights, indices, 0, options, &rng);
  return std::move(builder.nodes_);
}

}  // namespace xfair::oracles
