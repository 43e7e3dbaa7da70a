#include "src/model/gbm.h"

#include <algorithm>
#include <cmath>

#include "src/model/presort.h"
#include "src/obs/obs.h"
#include "src/util/kernels.h"

namespace xfair {
namespace {

using kernels::Sigmoid;

/// Builds one variance-reduction regression tree on the residuals over a
/// presorted layout and returns its node array. Leaf values use the Newton
/// step for logistic loss: sum(residual) / sum(p(1-p)).
struct TreeBuilder {
  Presort& layout;
  const Vector& residuals;  // y - p per instance.
  const Vector& hessians;   // p (1 - p) per instance.
  const GbmOptions& options;
  std::vector<GbmNode> nodes;

  /// Builds the node that owns [begin, end) of every layout list.
  int Build(size_t begin, size_t end, size_t depth) {
    const int id = static_cast<int>(nodes.size());
    nodes.emplace_back();
    double grad_sum = 0.0, hess_sum = 0.0;
    const uint32_t* rows = layout.rows();
    for (size_t k = begin; k < end; ++k) {
      grad_sum += residuals[rows[k]];
      hess_sum += hessians[rows[k]];
    }
    const size_t count = end - begin;
    nodes[id].value = grad_sum / std::max(hess_sum, 1e-12);
    nodes[id].cover = static_cast<double>(count);

    if (depth >= options.max_depth || count < 2 * options.min_samples_leaf) {
      return id;
    }

    // Best split by squared-residual variance reduction.
    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;
    const double total_sum = grad_sum;
    const double total_n = static_cast<double>(count);
    for (size_t f = 0; f < layout.num_features(); ++f) {
      const uint32_t* order = layout.sorted(f) + begin;
      double left_sum = 0.0;
      size_t left_n = 0;
      for (size_t k = 0; k + 1 < count; ++k) {
        left_sum += residuals[order[k]];
        ++left_n;
        const double value = layout.value(order[k], f);
        const double next = layout.value(order[k + 1], f);
        if (value == next) continue;
        if (left_n < options.min_samples_leaf ||
            count - left_n < options.min_samples_leaf) {
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
          best_threshold = 0.5 * (value + next);
        }
      }
    }
    if (best_feature < 0) return id;

    const size_t mid = layout.Partition(
        begin, end, static_cast<size_t>(best_feature), best_threshold);
    if (mid == begin || mid == end) return id;
    nodes[id].feature = best_feature;
    nodes[id].threshold = best_threshold;
    const int l = Build(begin, mid, depth + 1);
    nodes[id].left = l;
    const int r = Build(mid, end, depth + 1);
    nodes[id].right = r;
    return id;
  }
};

}  // namespace

Status GradientBoostedTrees::Fit(const Dataset& data,
                                 const GbmOptions& options) {
  XFAIR_SPAN("model/fit/gbm");
  const size_t n = data.size();
  if (n == 0) return Status::InvalidArgument("empty training set");
  XFAIR_EVENT(kInfo, "model", "fit",
              {{"model", "gbm"}, {"rows", std::to_string(n)}});
  if (options.num_rounds == 0) {
    return Status::InvalidArgument("num_rounds must be positive");
  }
  const Status finite = CheckFiniteInputs(data.x());
  if (!finite.ok()) return finite;
  // X never changes during a fit, so every round's tree starts from the
  // same presorted lists; only the residuals change.
  std::vector<uint32_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = static_cast<uint32_t>(i);
  Result<Presort> layout = Presort::Make(data.x(), std::move(all));
  if (!layout.ok()) return layout.status();
  trees_.clear();

  // Bias: log-odds of the base rate (clamped away from infinities).
  double pos = 0.0;
  for (size_t i = 0; i < n; ++i) pos += data.label(i);
  const double rate =
      std::min(std::max(pos / static_cast<double>(n), 1e-6), 1.0 - 1e-6);
  bias_ = std::log(rate / (1.0 - rate));

  Vector margins(n, bias_), residuals(n), hessians(n);

  for (size_t round = 0; round < options.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      const double p = Sigmoid(margins[i]);
      residuals[i] = static_cast<double>(data.label(i)) - p;
      hessians[i] = std::max(p * (1.0 - p), 1e-6);
    }
    layout->Reset();
    TreeBuilder builder{*layout, residuals, hessians, options, {}};
    builder.Build(0, n, 0);
    PackedForest step;
    step.Add(builder.nodes, &GbmNode::value);
    for (size_t i = 0; i < n; ++i) {
      margins[i] += kGbmLearningRate * step.Score(data.x().RowPtr(i),
                                                  data.num_features());
    }
    trees_.push_back(std::move(builder.nodes));
  }
  packed_ = PackedForest(bias_, kGbmLearningRate);
  for (const auto& tree : trees_) packed_.Add(tree, &GbmNode::value);
  fitted_ = true;
  fit_id_ = NextModelFitId();
  return Status::OK();
}

double GradientBoostedTrees::PredictProba(const Vector& x) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  return Sigmoid(packed_.Score(x.data(), x.size()));
}

Vector GradientBoostedTrees::PredictProbaBatch(const Matrix& x) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_LATENCY_NS("latency/predict_batch/gbm");
  Vector out = packed_.ScoreBatch(x, Sigmoid);
  XFAIR_MONITOR_PREDICTIONS(out.data(), out.size(), threshold_);
  return out;
}

}  // namespace xfair
