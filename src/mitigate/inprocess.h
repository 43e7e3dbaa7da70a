// In-processing mitigation: penalized logistic training.
//  - kParity: penalizes the squared gap in mean predicted score between
//    groups (a differentiable statistical-parity surrogate).
//  - kRecourse: penalizes the squared gap in mean *margin* between
//    groups' soft-denied members, the differentiable form of "equalizing
//    recourse across groups" [79] — denied members of both groups should
//    sit equally far from the boundary.

#ifndef XFAIR_MITIGATE_INPROCESS_H_
#define XFAIR_MITIGATE_INPROCESS_H_

#include "src/model/logistic_regression.h"

namespace xfair {

/// Which fairness surrogate the penalty targets.
enum class FairPenalty {
  kParity,      ///< Squared gap in mean group scores (group level).
  kRecourse,    ///< Squared gap in soft-denied mean margins [79].
  kIndividual,  ///< Lipschitz surrogate: squared excess of score
                ///< differences over lipschitz * distance on sampled
                ///< pairs (individual level, Dwork-style [19]).
};

/// Options for TrainFairLogisticRegression.
struct FairTrainingOptions {
  FairPenalty penalty = FairPenalty::kParity;
  /// Penalty strength; 0 recovers plain logistic regression.
  double lambda = 1.0;
  /// kIndividual only: the Lipschitz constant of the constraint.
  double lipschitz = 0.3;
  uint64_t pair_seed = 29;
};

/// Trains logistic regression with the chosen fairness penalty. The
/// returned model is a plain LogisticRegression (white-box access
/// preserved). Returns kInvalidArgument if a group is empty.
Result<LogisticRegression> TrainFairLogisticRegression(
    const Dataset& data, const FairTrainingOptions& options);

}  // namespace xfair

#endif  // XFAIR_MITIGATE_INPROCESS_H_
