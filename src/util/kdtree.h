// Exact k-nearest-neighbor index with deterministic tie-breaking.
//
// A KD-tree over the rows of a dense matrix, built by median splits on the
// maximum-spread dimension. Queries return exactly the k rows that a
// stable brute-force scan would return: candidates are ordered by the
// total order (squared distance, row index), and a subtree is pruned only
// when every point in it is *strictly* farther than the current k-th
// candidate — so equal-distance points always compete and the smaller row
// index wins, regardless of traversal order. Squared distances are
// accumulated in ascending coordinate order, matching the brute-force
// reference bit for bit; the index is therefore a drop-in replacement for
// the O(n*d) scan in KnnClassifier.

#ifndef XFAIR_UTIL_KDTREE_H_
#define XFAIR_UTIL_KDTREE_H_

#include <cstdint>
#include <vector>

#include "src/util/matrix.h"

namespace xfair {

/// KD-tree over matrix rows for exact Euclidean k-NN queries.
class KdTree {
 public:
  KdTree() = default;

  /// Builds the index over the rows of `points` (copied). O(n log n).
  /// `leaf_size` rows or fewer are scanned linearly at the leaves.
  explicit KdTree(const Matrix& points, size_t leaf_size = 16);

  /// Number of indexed rows.
  size_t size() const { return points_.rows(); }

  /// The indexed points (row order preserved from construction).
  const Matrix& points() const { return points_; }

  /// Row indices of the k nearest points to `q`, closest first; ties
  /// broken by ascending row index. Requires 0 < k <= size() and
  /// `q` to hold cols() coordinates.
  std::vector<size_t> KNearest(const double* q, size_t k) const;
  std::vector<size_t> KNearest(const Vector& q, size_t k) const;

  /// Squared Euclidean distance from `q` to indexed row `row`, summed in
  /// ascending coordinate order (the same arithmetic the queries use).
  double SquaredDistance(const double* q, size_t row) const;

 private:
  struct Node {
    int32_t split_dim = -1;   ///< -1 for a leaf.
    double split_val = 0.0;   ///< Left coords <= split_val <= right coords.
    int32_t left = -1;
    int32_t right = -1;
    uint32_t begin = 0;  ///< Leaf: range into order_.
    uint32_t end = 0;
  };

  int32_t Build(uint32_t begin, uint32_t end, size_t leaf_size);
  /// `visited` counts nodes touched, for the kdtree/nodes_visited
  /// histogram (observability only — never affects the result).
  void Search(int32_t node, const double* q, size_t k,
              std::vector<std::pair<double, size_t>>* heap,
              size_t* visited) const;

  Matrix points_;
  std::vector<uint32_t> order_;  ///< Row ids permuted by the build.
  std::vector<Node> nodes_;
};

}  // namespace xfair

#endif  // XFAIR_UTIL_KDTREE_H_
