// One packed, branch-free scorer behind every tree model's predictions.
//
// Fitted trees stay pointer-linked node arrays (TreeNode / GbmNode)
// because the explainers walk their structure. For scoring, each tree
// model also packs its trees once, at the end of Fit, into one
// PackedForest: every tree's nodes in one contiguous array, a tree being
// a root offset and a depth. Leaves loop to themselves (feature 0,
// threshold +inf, both children the leaf), so a walk may take any number
// of steps past its depth and stay put; it needs no leaf test. Each step
// picks the child by arithmetic, left + gt * (right - left) with
// gt = !(x <= threshold), instead of a data-dependent branch; NaN compares
// false and goes right, as in the pointer walk. A row walks kTile trees
// at a time in lockstep, for the deepest one's depth, so their loads
// overlap (Asadi, Lin and de Vries, "Runtime Optimizations for Tree-Based
// Machine Learning Models", TKDE 2014). A batch scores each row that way.
//
// The score is (bias + scale * v_1 + ... + scale * v_T) / divisor, with
// the trees' leaf values v_t added in ascending tree order. That one
// formula reproduces each model's accumulation bit for bit, since
// multiplying or dividing by 1.0 is exact:
//   GradientBoostedTrees  bias + lr * v_t ...   (bias, lr, 1): the margin
//   RandomForest          (0 + v_1 + ...) / T   (0, 1, T)
//   DecisionTree          v                     (0, 1, 1); 0 + v == v for
//                                               every leaf probability
//                                               (never -0.0).

#ifndef XFAIR_MODEL_PACKED_FOREST_H_
#define XFAIR_MODEL_PACKED_FOREST_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/check.h"
#include "src/util/matrix.h"

namespace xfair {

/// The trees of a fitted tree model, packed for scoring.
class PackedForest {
 public:
  /// Trees of one row walked in lockstep.
  static constexpr size_t kTile = 8;

  /// An empty forest whose score will be
  /// (bias + scale * sum of leaf values) / divisor.
  explicit PackedForest(double bias = 0.0, double scale = 1.0,
                        double divisor = 1.0)
      : bias_(bias), scale_(scale), divisor_(divisor) {}

  /// Appends one fitted tree: `nodes[0]` is its root, a node with
  /// feature < 0 is a leaf, and `value` names the leaf value member.
  template <typename Node>
  void Add(const std::vector<Node>& nodes, double Node::*value) {
    XFAIR_CHECK(nodes.size() < static_cast<size_t>(INT32_MAX) -
                                   nodes_.size());
    const int32_t root = static_cast<int32_t>(nodes_.size());
    for (const Node& n : nodes) {
      const int32_t self = static_cast<int32_t>(nodes_.size());
      if (n.feature < 0) {
        nodes_.push_back({kLeafThreshold, n.*value, 0, self, self});
      } else {
        nodes_.push_back({n.threshold, n.*value, n.feature, root + n.left,
                          root + n.right});
      }
    }
    AddTree(root);
  }

  /// Score of one row of `width` values. Checks that the row has every
  /// feature a split reads.
  double Score(const double* row, size_t width) const;

  /// finish(Score(row)) of every row of `x` (finish may be null: the
  /// score), inside ParallelForChunks. Checks the width before scoring.
  Vector ScoreBatch(const Matrix& x, double (*finish)(double) = nullptr) const;

 private:
  static constexpr double kLeafThreshold =
      std::numeric_limits<double>::infinity();

  struct PackedNode {
    double threshold;
    double value;
    int32_t feature;
    int32_t left;   ///< Absolute indices into nodes_; a leaf's are its
    int32_t right;  ///< own.
  };
  struct Tree {
    int32_t root;
    int32_t depth;
  };

  /// Records the depth of the tree just packed from nodes_[root] on, and
  /// widens width_ to its split features.
  void AddTree(int32_t root);
  int32_t Depth(int32_t node) const;

  /// Moves each of the K lanes down `steps` levels of `row` from node at[k].
  template <size_t K>
  void Descend(const double* row, int32_t* at, int32_t steps) const;

  std::vector<PackedNode> nodes_;
  std::vector<Tree> trees_;
  /// One past the largest split feature: the fewest features a row needs.
  size_t width_ = 0;
  double bias_;
  double scale_;
  double divisor_;
};

}  // namespace xfair

#endif  // XFAIR_MODEL_PACKED_FOREST_H_
