// Simplified Graph Convolution node classifier: k hops of normalized
// feature propagation followed by logistic regression. Linear message
// passing keeps the computation graph exact and inspectable, which is
// precisely what the structural-bias explainers ([89], [90]) operate on.

#ifndef XFAIR_GRAPH_SGC_H_
#define XFAIR_GRAPH_SGC_H_

#include "src/data/dataset.h"
#include "src/graph/graph.h"
#include "src/model/logistic_regression.h"

namespace xfair {

/// Options for SgcModel::Fit.
struct SgcOptions {
  size_t hops = 2;
};

/// SGC node classifier over a fixed graph.
class SgcModel {
 public:
  /// Propagates `data.features` over `data.graph` and fits the logistic
  /// head on all nodes.
  Status Fit(const GraphData& data, const SgcOptions& options = {});

  bool fitted() const { return fitted_; }
  size_t hops() const { return hops_; }
  const LogisticRegression& head() const { return head_; }

  /// Per-node scores using the stored propagated features.
  Vector ScoreAll() const;
  /// Hard predictions per node.
  std::vector<int> PredictAll() const;

  /// Score of node u if the features were propagated over `graph` instead
  /// of the training graph (used by edge-perturbation explainers; the
  /// logistic head is kept fixed).
  double ScoreOnGraph(const Graph& graph, const Matrix& features,
                      size_t u) const;
  /// Statistical parity gap of the fixed head over an alternative graph:
  /// P(favorable | G-) - P(favorable | G+).
  double ParityGapOnGraph(const Graph& graph, const Matrix& features,
                          const std::vector<int>& groups) const;

  /// The dataset view (propagated features + labels + groups) the head
  /// was trained on; useful for influence analysis.
  const Dataset& propagated_dataset() const { return propagated_; }

 private:
  bool fitted_ = false;
  size_t hops_ = 2;
  LogisticRegression head_;
  Dataset propagated_;
};

/// Parity gap of hard SGC predictions: P(yhat=1 | G-) - P(yhat=1 | G+).
double SgcParityGap(const SgcModel& model, const std::vector<int>& groups);

}  // namespace xfair

#endif  // XFAIR_GRAPH_SGC_H_
