// Sort-per-node tree builders, kept as test-only oracles for the presorted
// builders in src/model/ (DESIGN.md §5.4). Each node re-sorts its rows by
// (value, row) for every candidate feature; the library sorts once per fit
// and must produce bit-identical node arrays. Linked by the tests and the
// benches (xfair_oracles), never by the library.

#ifndef XFAIR_TESTS_ORACLES_TREE_FIT_ORACLE_H_
#define XFAIR_TESTS_ORACLES_TREE_FIT_ORACLE_H_

#include <vector>

#include "src/data/dataset.h"
#include "src/model/decision_tree.h"
#include "src/model/gbm.h"

namespace xfair::oracles {

/// A boosted ensemble as the sort-per-node fit builds it.
struct GbmFit {
  double bias = 0.0;
  std::vector<std::vector<GbmNode>> trees;
};

/// GradientBoostedTrees::Fit with a per-node sort. Requires a non-empty
/// dataset and num_rounds > 0.
GbmFit FitGbmSortPerNode(const Dataset& data, const GbmOptions& options = {});

/// DecisionTree::Fit's node array with a per-node sort. Empty `weights`
/// means unit weights; at least one weight must be positive.
std::vector<TreeNode> FitTreeSortPerNode(const Dataset& data,
                                         const DecisionTreeOptions& options,
                                         const Vector& weights = {});

}  // namespace xfair::oracles

#endif  // XFAIR_TESTS_ORACLES_TREE_FIT_ORACLE_H_
