#include "src/model/random_forest.h"

#include <cmath>

#include "src/obs/obs.h"
#include "src/util/parallel.h"

namespace xfair {

Status RandomForest::Fit(const Dataset& data,
                         const RandomForestOptions& options) {
  XFAIR_SPAN("model/fit/random_forest");
  if (data.size() == 0) return Status::InvalidArgument("empty training set");
  XFAIR_EVENT(kInfo, "model", "fit",
              {{"model", "random_forest"},
               {"rows", std::to_string(data.size())}});
  if (options.num_trees == 0)
    return Status::InvalidArgument("num_trees must be positive");
  trees_.clear();
  const size_t n = data.size();
  size_t max_features = options.max_features;
  if (max_features == 0) {
    max_features = std::max<size_t>(
        1, static_cast<size_t>(
               std::sqrt(static_cast<double>(data.num_features()))));
  }
  // Every tree draws its bootstrap and split randomness from its own
  // forked stream, so the fitted forest is identical no matter how many
  // threads fit it (or in which order the trees finish).
  const Rng root(options.seed);
  std::vector<DecisionTree> trees(options.num_trees);
  std::vector<Status> statuses(options.num_trees, Status::OK());
  ParallelFor(0, options.num_trees, [&](size_t t) {
    Rng tree_rng = root.Fork(t);
    // Bootstrap resample expressed as instance weights (multiplicities).
    Vector weights(n, 0.0);
    for (size_t i = 0; i < n; ++i) weights[tree_rng.Below(n)] += 1.0;
    DecisionTreeOptions tree_opts;
    tree_opts.max_depth = options.max_depth;
    tree_opts.min_samples_leaf = options.min_samples_leaf;
    tree_opts.max_features = max_features;
    tree_opts.feature_seed = tree_rng.Next();
    statuses[t] = trees[t].Fit(data, tree_opts, weights);
  });
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  trees_ = std::move(trees);
  packed_ = PackedForest(0.0, 1.0, static_cast<double>(trees_.size()));
  for (const DecisionTree& tree : trees_) {
    packed_.Add(tree.nodes(), &TreeNode::proba);
  }
  fit_id_ = NextModelFitId();
  return Status::OK();
}

double RandomForest::PredictProba(const Vector& x) const {
  XFAIR_CHECK_MSG(fitted(), "model not fitted");
  return packed_.Score(x.data(), x.size());
}

Vector RandomForest::PredictProbaBatch(const Matrix& x) const {
  XFAIR_CHECK_MSG(fitted(), "model not fitted");
  XFAIR_LATENCY_NS("latency/predict_batch/random_forest");
  Vector out = packed_.ScoreBatch(x);
  XFAIR_MONITOR_PREDICTIONS(out.data(), out.size(), threshold_);
  return out;
}

}  // namespace xfair
