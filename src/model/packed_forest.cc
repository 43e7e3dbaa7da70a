#include "src/model/packed_forest.h"

#include <algorithm>

#include "src/obs/obs.h"
#include "src/util/parallel.h"

namespace xfair {

void PackedForest::AddTree(int32_t root) {
  for (size_t i = static_cast<size_t>(root); i < nodes_.size(); ++i) {
    if (nodes_[i].left != static_cast<int32_t>(i)) {
      width_ = std::max(width_, static_cast<size_t>(nodes_[i].feature) + 1);
    }
  }
  trees_.push_back({root, Depth(root)});
}

int32_t PackedForest::Depth(int32_t node) const {
  const PackedNode& n = nodes_[static_cast<size_t>(node)];
  if (n.left == node) return 0;
  return 1 + std::max(Depth(n.left), Depth(n.right));
}

template <size_t K>
void PackedForest::Descend(const double* row, int32_t* at,
                           int32_t steps) const {
  const PackedNode* nodes = nodes_.data();
  for (int32_t step = 0; step < steps; ++step) {
    for (size_t k = 0; k < K; ++k) {
      const PackedNode& n = nodes[at[k]];
      const int32_t gt = !(row[n.feature] <= n.threshold);
      at[k] = n.left + gt * (n.right - n.left);
    }
  }
}

double PackedForest::Score(const double* row, size_t width) const {
  XFAIR_CHECK_MSG(width >= width_, "row has fewer features than the trees");
  // kTile trees at a time walk the row in lockstep, for the deepest one's
  // depth.
  double acc = bias_;
  size_t t = 0;
  for (; t + kTile <= trees_.size(); t += kTile) {
    int32_t at[kTile];
    int32_t depth = 0;
    for (size_t k = 0; k < kTile; ++k) {
      at[k] = trees_[t + k].root;
      depth = std::max(depth, trees_[t + k].depth);
    }
    Descend<kTile>(row, at, depth);
    for (size_t k = 0; k < kTile; ++k) acc += scale_ * nodes_[at[k]].value;
  }
  for (; t < trees_.size(); ++t) {
    int32_t at = trees_[t].root;
    Descend<1>(row, &at, trees_[t].depth);
    acc += scale_ * nodes_[at].value;
  }
  return acc / divisor_;
}

Vector PackedForest::ScoreBatch(const Matrix& x,
                                double (*finish)(double)) const {
  XFAIR_CHECK_MSG(x.cols() >= width_, "row has fewer features than the trees");
  XFAIR_COUNTER_ADD("flat_tree/batch_rows", x.rows());
  Vector out(x.rows());
  ParallelForChunks(0, x.rows(), [&](const ChunkRange& chunk) {
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      out[i] = Score(x.RowPtr(i), x.cols());
      if (finish != nullptr) out[i] = finish(out[i]);
    }
  });
  return out;
}

}  // namespace xfair
