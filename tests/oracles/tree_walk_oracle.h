// The pointer walk every tree model scored rows with before the packed
// scorer (src/model/packed_forest.h): from the root, compare and branch
// to a child until a leaf, with a bounds check at every split. Kept as
// the reference the scorer is pinned against bit for bit, per row and per
// batch, and timed against in bench_kernels. Linked by the tests and the
// benches (xfair_oracles), never by the library.

#ifndef XFAIR_TESTS_ORACLES_TREE_WALK_ORACLE_H_
#define XFAIR_TESTS_ORACLES_TREE_WALK_ORACLE_H_

#include <cstddef>
#include <vector>

#include "src/model/decision_tree.h"
#include "src/model/gbm.h"
#include "src/model/random_forest.h"
#include "src/util/check.h"

namespace xfair::oracles {

/// Leaf value (the `value` member) of the leaf `row` reaches in a fitted
/// tree; `row` holds `width` features. Goes left iff row[f] <= threshold,
/// so NaN goes right.
template <typename Node>
double WalkNodes(const std::vector<Node>& nodes, double Node::*value,
                 const double* row, size_t width) {
  int id = 0;
  for (;;) {
    const Node& n = nodes[static_cast<size_t>(id)];
    if (n.feature < 0) return n.*value;
    XFAIR_CHECK(static_cast<size_t>(n.feature) < width);
    id = row[static_cast<size_t>(n.feature)] <= n.threshold ? n.left
                                                            : n.right;
  }
}

/// P(y = 1 | row) by pointer walks, in each model's accumulation order:
/// a tree's leaf probability; a forest's (0 + v_1 + ... + v_T) / T; a
/// GBM's sigmoid(bias + lr * v_1 + ... + lr * v_T).
double WalkProba(const DecisionTree& tree, const double* row, size_t width);
double WalkProba(const RandomForest& forest, const double* row,
                 size_t width);
double WalkProba(const GradientBoostedTrees& gbm, const double* row,
                 size_t width);

}  // namespace xfair::oracles

#endif  // XFAIR_TESTS_ORACLES_TREE_WALK_ORACLE_H_
