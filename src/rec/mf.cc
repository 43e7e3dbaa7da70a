#include "src/rec/mf.h"

#include <algorithm>
#include <cmath>

#include "src/util/kernels.h"

namespace xfair {
namespace {

/// SGD epochs over the positives, step size and L2 weight.
constexpr size_t kEpochs = 30;
constexpr double kLearningRate = 0.05;
constexpr double kL2 = 0.01;
/// Negative items sampled per positive.
constexpr size_t kNegativesPerPositive = 3;

}  // namespace

Status MatrixFactorization::Fit(const Interactions& interactions,
                                const MfOptions& options) {
  if (interactions.num_interactions() == 0) {
    return Status::InvalidArgument("no interactions to fit");
  }
  if (options.rank == 0) {
    return Status::InvalidArgument("rank must be positive");
  }
  rank_ = options.rank;
  Rng rng(options.seed);
  const size_t nu = interactions.num_users();
  const size_t ni = interactions.num_items();
  users_ = Matrix(nu, rank_);
  items_ = Matrix(ni, rank_);
  for (size_t u = 0; u < nu; ++u)
    for (size_t f = 0; f < rank_; ++f)
      users_.At(u, f) = rng.Normal(0.0, 0.1);
  for (size_t i = 0; i < ni; ++i)
    for (size_t f = 0; f < rank_; ++f)
      items_.At(i, f) = rng.Normal(0.0, 0.1);

  // Each SGD step is two dense kernels on the contiguous factor rows:
  // a pinned-order dot for the score and a fused paired update.
  auto update = [&](size_t u, size_t i, double label) {
    double* pu = users_.RowPtr(u);
    double* qi = items_.RowPtr(i);
    const double z = kernels::Dot(pu, qi, rank_);
    const double err = kernels::Sigmoid(z) - label;
    kernels::SgdPairUpdate(pu, qi, kLearningRate, err, kL2, rank_);
  };

  std::vector<std::pair<size_t, size_t>> positives = interactions.pairs();
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    rng.Shuffle(&positives);
    for (const auto& [u, i] : positives) {
      update(u, i, 1.0);
      for (size_t neg = 0; neg < kNegativesPerPositive; ++neg) {
        const size_t j = rng.Below(ni);
        if (!interactions.Has(u, j)) update(u, j, 0.0);
      }
    }
  }
  fitted_ = true;
  return Status::OK();
}

double MatrixFactorization::Score(size_t user, size_t item) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_CHECK(user < users_.rows() && item < items_.rows());
  return kernels::Dot(users_.RowPtr(user), items_.RowPtr(item), rank_);
}

double MatrixFactorization::ScoreWithDampedFactor(size_t user, size_t item,
                                                  size_t f,
                                                  double scale) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  XFAIR_CHECK(f < rank_);
  double z = 0.0;
  for (size_t k = 0; k < rank_; ++k) {
    const double damp = k == f ? scale : 1.0;
    z += users_.At(user, k) * items_.At(item, k) * damp;
  }
  return z;
}

std::vector<size_t> MatrixFactorization::RankItems(
    const Interactions& interactions, size_t user, size_t k) const {
  XFAIR_CHECK_MSG(fitted_, "model not fitted");
  std::vector<size_t> order;
  for (size_t i = 0; i < items_.rows(); ++i)
    if (!interactions.Has(user, i)) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double sa = Score(user, a), sb = Score(user, b);
    if (sa != sb) return sa > sb;
    return a < b;
  });
  if (order.size() > k) order.resize(k);
  return order;
}

}  // namespace xfair
