// Synthetic biased-data generators.
//
// The surveyed methods are evaluated on COMPAS, Adult, and German credit.
// Those datasets cannot ship here, so each generator mirrors one dataset's
// schema and documented disparity direction while *planting* its bias with
// known ground truth: a tunable base-rate gap, a proxy feature correlated
// with group membership, and group-dependent label corruption. Planted bias
// is what makes the reproduction testable — an explanation method is correct
// iff it recovers the mechanism we injected.

#ifndef XFAIR_DATA_GENERATORS_H_
#define XFAIR_DATA_GENERATORS_H_

#include "src/data/dataset.h"

namespace xfair {

/// Shared bias knobs for all generators.
struct BiasConfig {
  /// P(instance belongs to protected group G+).
  double protected_fraction = 0.4;
  /// Additive shift of the latent qualification score against G+; drives a
  /// base-rate gap in ground-truth labels. 0 = no structural disparity.
  double score_shift = 0.8;
  /// Strength of the proxy feature's dependence on group membership in
  /// [0, 1]. 0 = proxy carries no group signal.
  double proxy_strength = 0.6;
  /// Probability of flipping a true favorable label of a protected
  /// individual to unfavorable (societal/label bias).
  double label_bias = 0.1;
  /// Multiplier on the generator's built-in depression of *observable
  /// qualifications* (income, savings, hours, employment) for the protected
  /// group. 1 = full historical disparity, 0 = groups identically
  /// qualified.
  double qualification_gap = 1.0;
};

/// German-credit-like loan dataset. Favorable label = creditworthy.
/// Sensitive attribute: column "protected" (e.g. gender). Proxy:
/// "zip_risk". Actionable features: income, savings, employment_years
/// (increase-only), debt, loan_duration (decrease-only).
class CreditGen {
 public:
  explicit CreditGen(BiasConfig config = {}) : config_(config) {}
  /// Generates n instances deterministically from `seed`.
  Dataset Generate(size_t n, uint64_t seed) const;
  /// The generator's schema (also the schema of Generate's output).
  static Schema MakeSchema();

 private:
  BiasConfig config_;
};

/// COMPAS-like recidivism dataset. Note the flipped polarity: the favorable
/// outcome (label 1) is "did NOT recidivate". Sensitive: "protected"
/// (race). Proxy: "neighborhood_arrests". Immutable: age, priors_count
/// cannot decrease.
class RecidivismGen {
 public:
  explicit RecidivismGen(BiasConfig config = {}) : config_(config) {}
  Dataset Generate(size_t n, uint64_t seed) const;
  static Schema MakeSchema();

 private:
  BiasConfig config_;
};

/// Adult-census-like income dataset. Favorable label = high income.
/// Sensitive: "protected" (sex). Proxy: categorical "occupation" whose
/// distribution depends on group.
class IncomeGen {
 public:
  explicit IncomeGen(BiasConfig config = {}) : config_(config) {}
  Dataset Generate(size_t n, uint64_t seed) const;
  static Schema MakeSchema();

 private:
  BiasConfig config_;
};

}  // namespace xfair

#endif  // XFAIR_DATA_GENERATORS_H_
