#include "src/model/decision_tree.h"

#include "src/model/presort.h"
#include "src/obs/obs.h"

namespace xfair {
namespace {

/// Gini impurity of a weighted binary label distribution.
double Gini(double pos_weight, double total_weight) {
  if (total_weight <= 0.0) return 0.0;
  const double p = pos_weight / total_weight;
  return 2.0 * p * (1.0 - p);
}

/// Builds a CART tree over a presorted layout of the positive-weight rows.
struct CartBuilder {
  Presort& layout;
  const Dataset& data;
  const Vector& weights;
  const DecisionTreeOptions& options;
  Rng& rng;
  std::vector<TreeNode> nodes;

  /// Builds the node that owns [begin, end) of every layout list.
  int Build(size_t begin, size_t end, size_t depth) {
    double total = 0.0, pos = 0.0;
    const uint32_t* rows = layout.rows();
    for (size_t k = begin; k < end; ++k) {
      const size_t i = rows[k];
      total += weights[i];
      pos += weights[i] * static_cast<double>(data.label(i));
    }
    const int node_id = static_cast<int>(nodes.size());
    nodes.emplace_back();
    nodes[node_id].proba = total > 0.0 ? pos / total : 0.0;
    nodes[node_id].weight = total;

    const size_t count = end - begin;
    const bool pure = pos <= 1e-12 || pos >= total - 1e-12;
    if (depth >= options.max_depth || pure ||
        count < 2 * options.min_samples_leaf) {
      return node_id;
    }

    // Candidate features: all, or a random subset for forests.
    std::vector<size_t> features;
    const size_t d = data.num_features();
    if (options.max_features > 0 && options.max_features < d) {
      features = rng.SampleWithoutReplacement(d, options.max_features);
    } else {
      features.resize(d);
      for (size_t c = 0; c < d; ++c) features[c] = c;
    }

    const double parent_impurity = Gini(pos, total);
    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;

    // Scan each candidate feature's presorted rows for the best split.
    for (size_t f : features) {
      const uint32_t* order = layout.sorted(f) + begin;
      double left_total = 0.0, left_pos = 0.0;
      size_t left_count = 0;
      for (size_t k = 0; k + 1 < count; ++k) {
        const size_t i = order[k];
        left_total += weights[i];
        left_pos += weights[i] * static_cast<double>(data.label(i));
        ++left_count;
        const double value = layout.value(i, f);
        const double next = layout.value(order[k + 1], f);
        if (value == next) continue;  // No cut here.
        if (left_count < options.min_samples_leaf ||
            count - left_count < options.min_samples_leaf) {
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
          best_threshold = 0.5 * (value + next);
        }
      }
    }

    if (best_feature < 0) return node_id;  // No useful split found.

    const size_t mid = layout.Partition(
        begin, end, static_cast<size_t>(best_feature), best_threshold);
    if (mid == begin || mid == end) return node_id;

    nodes[node_id].feature = best_feature;
    nodes[node_id].threshold = best_threshold;
    const int left = Build(begin, mid, depth + 1);
    nodes[node_id].left = left;
    const int right = Build(mid, end, depth + 1);
    nodes[node_id].right = right;
    return node_id;
  }
};

}  // namespace

Status DecisionTree::Fit(const Dataset& data,
                         const DecisionTreeOptions& options,
                         const Vector& instance_weights) {
  XFAIR_SPAN("model/fit/decision_tree");
  if (data.size() == 0) return Status::InvalidArgument("empty training set");
  XFAIR_EVENT(kInfo, "model", "fit",
              {{"model", "decision_tree"},
               {"rows", std::to_string(data.size())}});
  if (!instance_weights.empty() && instance_weights.size() != data.size()) {
    return Status::InvalidArgument("instance_weights size mismatch");
  }
  const Status finite = CheckFiniteInputs(data.x(), instance_weights);
  if (!finite.ok()) return finite;
  Vector weights = instance_weights;
  if (weights.empty()) weights.assign(data.size(), 1.0);
  std::vector<uint32_t> rows;
  rows.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    if (weights[i] > 0.0) rows.push_back(static_cast<uint32_t>(i));
  }
  if (rows.empty())
    return Status::InvalidArgument("all instance weights are zero");
  Result<Presort> layout = Presort::Make(data.x(), std::move(rows));
  if (!layout.ok()) return layout.status();
  Rng rng(options.feature_seed);
  CartBuilder builder{*layout, data, weights, options, rng, {}};
  builder.Build(0, layout->size(), 0);
  nodes_ = std::move(builder.nodes);
  packed_ = PackedForest();
  packed_.Add(nodes_, &TreeNode::proba);
  fit_id_ = NextModelFitId();
  return Status::OK();
}

double DecisionTree::PredictProba(const Vector& x) const {
  XFAIR_CHECK_MSG(fitted(), "model not fitted");
  return packed_.Score(x.data(), x.size());
}

Vector DecisionTree::PredictProbaBatch(const Matrix& x) const {
  XFAIR_CHECK_MSG(fitted(), "model not fitted");
  XFAIR_LATENCY_NS("latency/predict_batch/decision_tree");
  Vector out = packed_.ScoreBatch(x);
  XFAIR_MONITOR_PREDICTIONS(out.data(), out.size(), threshold_);
  return out;
}

int DecisionTree::LeafIndex(const Vector& x) const {
  XFAIR_CHECK_MSG(fitted(), "model not fitted");
  int node = 0;
  for (;;) {
    const TreeNode& n = nodes_[static_cast<size_t>(node)];
    if (n.feature < 0) return node;
    XFAIR_CHECK(static_cast<size_t>(n.feature) < x.size());
    node = x[static_cast<size_t>(n.feature)] <= n.threshold ? n.left
                                                            : n.right;
  }
}

}  // namespace xfair
