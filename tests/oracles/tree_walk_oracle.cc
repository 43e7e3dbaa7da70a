#include "tests/oracles/tree_walk_oracle.h"

#include "src/util/kernels.h"

namespace xfair::oracles {

double WalkProba(const DecisionTree& tree, const double* row, size_t width) {
  return WalkNodes(tree.nodes(), &TreeNode::proba, row, width);
}

double WalkProba(const RandomForest& forest, const double* row,
                 size_t width) {
  double acc = 0.0;
  for (const DecisionTree& tree : forest.trees()) {
    acc += WalkNodes(tree.nodes(), &TreeNode::proba, row, width);
  }
  return acc / static_cast<double>(forest.trees().size());
}

double WalkProba(const GradientBoostedTrees& gbm, const double* row,
                 size_t width) {
  double margin = gbm.bias();
  for (const std::vector<GbmNode>& tree : gbm.trees()) {
    margin += kGbmLearningRate *
              WalkNodes(tree, &GbmNode::value, row, width);
  }
  return kernels::Sigmoid(margin);
}

}  // namespace xfair::oracles
