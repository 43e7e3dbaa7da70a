// Implicit-feedback matrix factorization (SGD with sampled negatives) —
// the embedding-based recommender substrate used by the CEF-style
// attribute explanations [87], which need a factorized score to perturb.

#ifndef XFAIR_REC_MF_H_
#define XFAIR_REC_MF_H_

#include "src/rec/interactions.h"
#include "src/util/matrix.h"
#include "src/util/status.h"

namespace xfair {

/// Options for MatrixFactorization::Fit.
struct MfOptions {
  size_t rank = 8;
  uint64_t seed = 5;
};

/// Logistic matrix factorization: P(interaction) = sigmoid(p_u . q_i).
class MatrixFactorization {
 public:
  Status Fit(const Interactions& interactions, const MfOptions& options);

  bool fitted() const { return fitted_; }
  size_t rank() const { return rank_; }
  /// Raw affinity p_u . q_i.
  double Score(size_t user, size_t item) const;
  /// Score with latent factor `f` of the item embedding damped by
  /// `scale` in [0, 1] — the perturbation primitive CEF-style
  /// explanations sweep.
  double ScoreWithDampedFactor(size_t user, size_t item, size_t f,
                               double scale) const;
  /// Top-k ranking for a user, excluding consumed items.
  std::vector<size_t> RankItems(const Interactions& interactions,
                                size_t user, size_t k) const;

  const Matrix& user_factors() const { return users_; }
  const Matrix& item_factors() const { return items_; }

 private:
  bool fitted_ = false;
  size_t rank_ = 0;
  Matrix users_, items_;
};

}  // namespace xfair

#endif  // XFAIR_REC_MF_H_
