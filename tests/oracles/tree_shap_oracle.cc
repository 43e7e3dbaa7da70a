#include "tests/oracles/tree_shap_oracle.h"

#include <algorithm>
#include <array>
#include <limits>

#include "src/util/check.h"
#include "src/util/parallel.h"

namespace xfair::oracles {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Rows per tile: the batched sweep's kBatchTile.
constexpr size_t kTileRows = 1024;
/// Distinct features a path may touch (the library's factorial table).
constexpr size_t kMaxPathFeatures = 64;

const double* Factorials() {
  static const std::array<double, kMaxPathFeatures + 1> table = [] {
    std::array<double, kMaxPathFeatures + 1> t{};
    t[0] = 1.0;
    for (size_t i = 1; i < t.size(); ++i) {
      t[i] = t[i - 1] * static_cast<double>(i);
    }
    return t;
  }();
  return table.data();
}

/// One unique feature on the current path: pass iff lo < x[f] <= hi.
struct Entry {
  int feature = -1;
  double lo = -kInf, hi = kInf;
};

/// Interventional TreeSHAP of one explained row x against one background
/// row z: leaves reachable by some x/z hybrid add `weight`-scaled
/// closed-form Shapley deltas, (p-1)! q! / (p+q)! for the p features only
/// x passes and -p! (q-1)! / (p+q)! for the q only z passes, to phi; the
/// empty-coalition value goes to base. Leaf values are node.proba.
void IvWalk(const std::vector<TreeNode>& nodes, int id, const double* x,
            const double* z, std::vector<Entry>* path, double weight,
            double* phi, double* base, const double* fact) {
  const TreeNode& n = nodes[static_cast<size_t>(id)];
  if (n.feature < 0) {
    XFAIR_CHECK(path->size() <= kMaxPathFeatures);
    size_t p = 0, q = 0;
    for (const Entry& e : *path) {
      const bool a = e.lo < x[e.feature] && x[e.feature] <= e.hi;
      const bool b = e.lo < z[e.feature] && z[e.feature] <= e.hi;
      p += a && !b;
      q += !a && b;
    }
    if (p == 0) *base += weight * n.proba;
    if (p + q == 0) return;
    const double inv = 1.0 / fact[p + q];
    const double w_pos = p > 0 ? fact[p - 1] * fact[q] * inv : 0.0;
    const double w_neg = q > 0 ? fact[p] * fact[q - 1] * inv : 0.0;
    const double d_pos = n.proba * w_pos;
    const double d_neg = -(n.proba * w_neg);
    for (const Entry& e : *path) {
      const bool a = e.lo < x[e.feature] && x[e.feature] <= e.hi;
      const bool b = e.lo < z[e.feature] && z[e.feature] <= e.hi;
      if (a && !b) {
        phi[static_cast<size_t>(e.feature)] += weight * d_pos;
      } else if (!a && b) {
        phi[static_cast<size_t>(e.feature)] += weight * d_neg;
      }
    }
    return;
  }
  const auto descend = [&](int child, bool left_edge) {
    size_t idx = 0;
    while (idx < path->size() && (*path)[idx].feature != n.feature) ++idx;
    const bool existed = idx < path->size();
    if (!existed) path->push_back({n.feature, -kInf, kInf});
    const Entry saved = (*path)[idx];
    Entry& e = (*path)[idx];
    if (left_edge) {
      e.hi = std::min(e.hi, n.threshold);
    } else {
      e.lo = std::max(e.lo, n.threshold);
    }
    const bool a = e.lo < x[e.feature] && x[e.feature] <= e.hi;
    const bool b = e.lo < z[e.feature] && z[e.feature] <= e.hi;
    if (a || b) IvWalk(nodes, child, x, z, path, weight, phi, base, fact);
    if (existed) {
      (*path)[idx] = saved;
    } else {
      path->pop_back();
    }
  };
  descend(n.left, /*left_edge=*/true);
  descend(n.right, /*left_edge=*/false);
}

}  // namespace

CoalitionValue MaskingGame(const Model& model, const Matrix& background,
                           const Vector& x) {
  return [&model, &background, x](const std::vector<bool>& mask) {
    Matrix z(background.rows(), x.size());
    for (size_t b = 0; b < background.rows(); ++b) {
      const double* row = background.RowPtr(b);
      double* out = z.RowPtr(b);
      for (size_t c = 0; c < x.size(); ++c)
        out[c] = mask[c] ? x[c] : row[c];
    }
    const Vector proba = model.PredictProbaBatch(z);
    double acc = 0.0;
    for (double p : proba) acc += p;
    return acc / static_cast<double>(background.rows());
  };
}

Vector InterventionalTreeShapThresholdedLooped(
    const DecisionTree& tree, const Matrix& xs,
    const std::vector<size_t>& rows, const Vector& weights, const Vector& z,
    double tau) {
  XFAIR_CHECK(tree.fitted());
  XFAIR_CHECK(rows.size() == weights.size());
  XFAIR_CHECK(z.size() == xs.cols());
  const size_t d = z.size();
  if (rows.empty()) return Vector(d, 0.0);
  const size_t dim = d + 1;
  std::vector<TreeNode> thresholded = tree.nodes();
  for (TreeNode& node : thresholded)
    node.proba = node.proba >= tau ? 1.0 : 0.0;
  const size_t ntiles = (rows.size() + kTileRows - 1) / kTileRows;
  std::vector<double> partials(ntiles * dim, 0.0);
  ParallelFor(0, ntiles, [&](size_t ti) {
    const size_t at = ti * kTileRows;
    const size_t tile = std::min(kTileRows, rows.size() - at);
    double* part = partials.data() + ti * dim;
    std::vector<Entry> path;
    Vector v(dim);
    for (size_t i = 0; i < tile; ++i) {
      std::fill(v.begin(), v.end(), 0.0);
      IvWalk(thresholded, 0, xs.RowPtr(rows[at + i]), z.data(), &path,
             weights[at + i], v.data(), &v[d], Factorials());
      for (size_t c = 0; c < dim; ++c) part[c] += v[c];
    }
  });
  Vector out(d);
  std::vector<double> column(ntiles);
  for (size_t c = 0; c < d; ++c) {
    for (size_t k = 0; k < ntiles; ++k) column[k] = partials[k * dim + c];
    out[c] = PairwiseSumInPlace(column.data(), ntiles);
  }
  return out;
}

}  // namespace xfair::oracles
