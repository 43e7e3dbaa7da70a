#include "src/graph/sgc.h"

namespace xfair {
namespace {

/// Wraps propagated node features as a Dataset for the logistic head.
Dataset AsDataset(const Matrix& propagated, const std::vector<int>& labels,
                  const std::vector<int>& groups) {
  std::vector<FeatureSpec> specs(propagated.cols());
  for (size_t c = 0; c < specs.size(); ++c) {
    // Appended, not "h" + std::to_string(c): GCC 12 at -O3 flags that
    // overload with a spurious -Wrestrict.
    specs[c].name = std::string("h").append(std::to_string(c));
    specs[c].lower = -1e6;
    specs[c].upper = 1e6;
  }
  return Dataset(Schema(std::move(specs), -1), propagated, labels, groups);
}

}  // namespace

Status SgcModel::Fit(const GraphData& data, const SgcOptions& options) {
  if (data.features.rows() != data.graph.num_nodes() ||
      data.labels.size() != data.graph.num_nodes() ||
      data.groups.size() != data.graph.num_nodes()) {
    return Status::InvalidArgument("graph/feature/label size mismatch");
  }
  hops_ = options.hops;
  Matrix propagated = PropagateFeatures(data.graph, data.features, hops_);
  propagated_ = AsDataset(propagated, data.labels, data.groups);
  XFAIR_RETURN_IF_ERROR(head_.Fit(propagated_));
  fitted_ = true;
  return Status::OK();
}

Vector SgcModel::ScoreAll() const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  return head_.PredictProbaAll(propagated_);
}

std::vector<int> SgcModel::PredictAll() const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  return head_.PredictAll(propagated_);
}

double SgcModel::ScoreOnGraph(const Graph& graph, const Matrix& features,
                              size_t u) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_CHECK(u < graph.num_nodes());
  Matrix propagated = PropagateFeatures(graph, features, hops_);
  return head_.PredictProba(propagated.Row(u));
}

double SgcModel::ParityGapOnGraph(const Graph& graph, const Matrix& features,
                                  const std::vector<int>& groups) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  Matrix propagated = PropagateFeatures(graph, features, hops_);
  double pos[2] = {0, 0};
  size_t count[2] = {0, 0};
  for (size_t u = 0; u < graph.num_nodes(); ++u) {
    const int pred = head_.Predict(propagated.Row(u));
    pos[groups[u]] += static_cast<double>(pred);
    ++count[groups[u]];
  }
  const double r0 = count[0] ? pos[0] / static_cast<double>(count[0]) : 0.0;
  const double r1 = count[1] ? pos[1] / static_cast<double>(count[1]) : 0.0;
  return r0 - r1;
}

double SgcParityGap(const SgcModel& model, const std::vector<int>& groups) {
  const std::vector<int> preds = model.PredictAll();
  XFAIR_CHECK(preds.size() == groups.size());
  double pos[2] = {0, 0};
  size_t count[2] = {0, 0};
  for (size_t u = 0; u < preds.size(); ++u) {
    pos[groups[u]] += static_cast<double>(preds[u]);
    ++count[groups[u]];
  }
  const double r0 = count[0] ? pos[0] / static_cast<double>(count[0]) : 0.0;
  const double r1 = count[1] ? pos[1] / static_cast<double>(count[1]) : 0.0;
  return r0 - r1;
}

}  // namespace xfair
