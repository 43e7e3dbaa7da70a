#include "src/data/generators.h"

#include <algorithm>
#include <cmath>

namespace xfair {
namespace {

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

/// Symmetric label noise applied to everyone.
constexpr double kLabelNoise = 0.03;

double Clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

/// Draws the final label: thresholds the latent probability, then applies
/// group-dependent label bias and symmetric noise.
int DrawLabel(double p_favorable, int group, const BiasConfig& cfg,
              Rng* rng) {
  int y = rng->Bernoulli(p_favorable) ? 1 : 0;
  if (y == 1 && group == 1 && rng->Bernoulli(cfg.label_bias)) y = 0;
  if (rng->Bernoulli(kLabelNoise)) y = 1 - y;
  return y;
}

}  // namespace

Schema CreditGen::MakeSchema() {
  std::vector<FeatureSpec> f;
  f.push_back({"protected", FeatureKind::kBinary, 0, Actionability::kImmutable,
               0.0, 1.0});
  f.push_back(
      {"age", FeatureKind::kNumeric, 0, Actionability::kImmutable, 18.0, 90.0});
  f.push_back({"income", FeatureKind::kNumeric, 0,
               Actionability::kIncreaseOnly, 0.0, 20.0});
  f.push_back({"savings", FeatureKind::kNumeric, 0,
               Actionability::kIncreaseOnly, 0.0, 30.0});
  f.push_back({"employment_years", FeatureKind::kNumeric, 0,
               Actionability::kIncreaseOnly, 0.0, 50.0});
  f.push_back({"debt", FeatureKind::kNumeric, 0, Actionability::kDecreaseOnly,
               0.0, 30.0});
  f.push_back({"loan_duration", FeatureKind::kNumeric, 0,
               Actionability::kDecreaseOnly, 6.0, 72.0});
  f.push_back({"zip_risk", FeatureKind::kNumeric, 0, Actionability::kAny, 0.0,
               10.0});
  return Schema(std::move(f), /*sensitive_index=*/0);
}

Dataset CreditGen::Generate(size_t n, uint64_t seed) const {
  Rng rng(seed);
  Schema schema = MakeSchema();
  Matrix x(n, schema.num_features());
  std::vector<int> labels(n), groups(n);
  for (size_t i = 0; i < n; ++i) {
    const int g = rng.Bernoulli(config_.protected_fraction) ? 1 : 0;
    const double age = Clamp(rng.Normal(40.0, 12.0), 18.0, 90.0);
    // Income and savings are mildly depressed for the protected group:
    // historical disparity flows into observable qualifications.
    const double income =
        Clamp(rng.Normal(6.0 - 0.8 * config_.qualification_gap * g, 2.0), 0.0, 20.0);
    const double savings = Clamp(rng.Normal(8.0 - config_.qualification_gap * g, 4.0), 0.0, 30.0);
    const double employment =
        Clamp(rng.Normal(8.0, 5.0) + 0.1 * (age - 40.0), 0.0, 50.0);
    const double debt = Clamp(rng.Normal(6.0, 3.0), 0.0, 30.0);
    const double duration = Clamp(rng.Normal(30.0, 12.0), 6.0, 72.0);
    // Proxy: zip risk mixes group membership with noise.
    const double zip_risk =
        Clamp(config_.proxy_strength * (3.0 + 4.0 * g) +
                  (1.0 - config_.proxy_strength) * rng.Uniform(0.0, 10.0) +
                  rng.Normal(0.0, 0.5),
              0.0, 10.0);
    x.At(i, 0) = g;
    x.At(i, 1) = age;
    x.At(i, 2) = income;
    x.At(i, 3) = savings;
    x.At(i, 4) = employment;
    x.At(i, 5) = debt;
    x.At(i, 6) = duration;
    x.At(i, 7) = zip_risk;

    // Latent creditworthiness; score_shift plants structural disparity.
    const double z = 0.45 * (income - 6.0) + 0.18 * (savings - 8.0) +
                     0.12 * (employment - 8.0) - 0.22 * (debt - 6.0) -
                     0.035 * (duration - 30.0) -
                     config_.score_shift * static_cast<double>(g) +
                     rng.Normal(0.0, 0.4);
    groups[i] = g;
    labels[i] = DrawLabel(Sigmoid(z), g, config_, &rng);
  }
  return Dataset(std::move(schema), std::move(x), std::move(labels),
                 std::move(groups));
}

Schema RecidivismGen::MakeSchema() {
  std::vector<FeatureSpec> f;
  f.push_back({"protected", FeatureKind::kBinary, 0, Actionability::kImmutable,
               0.0, 1.0});
  f.push_back(
      {"age", FeatureKind::kNumeric, 0, Actionability::kImmutable, 18.0, 80.0});
  f.push_back({"priors_count", FeatureKind::kNumeric, 0,
               Actionability::kIncreaseOnly, 0.0, 30.0});
  f.push_back({"juvenile_offenses", FeatureKind::kNumeric, 0,
               Actionability::kImmutable, 0.0, 10.0});
  f.push_back({"charge_degree", FeatureKind::kBinary, 0,
               Actionability::kImmutable, 0.0, 1.0});
  f.push_back({"employment_status", FeatureKind::kBinary, 0,
               Actionability::kAny, 0.0, 1.0});
  f.push_back({"neighborhood_arrests", FeatureKind::kNumeric, 0,
               Actionability::kAny, 0.0, 10.0});
  return Schema(std::move(f), /*sensitive_index=*/0);
}

Dataset RecidivismGen::Generate(size_t n, uint64_t seed) const {
  Rng rng(seed);
  Schema schema = MakeSchema();
  Matrix x(n, schema.num_features());
  std::vector<int> labels(n), groups(n);
  for (size_t i = 0; i < n; ++i) {
    const int g = rng.Bernoulli(config_.protected_fraction) ? 1 : 0;
    const double age = Clamp(18.0 + rng.Normal(14.0, 10.0), 18.0, 80.0);
    // Over-policing: the protected group accumulates more recorded priors
    // at equal underlying behavior — a selection bias the explainers should
    // surface through the proxy chain.
    const double priors = Clamp(
        rng.Normal(2.0 + 1.5 * config_.proxy_strength * g, 2.0), 0.0, 30.0);
    const double juvenile =
        Clamp(rng.Normal(0.5 + 0.3 * config_.qualification_gap * g, 0.8), 0.0, 10.0);
    const double felony = rng.Bernoulli(0.4) ? 1.0 : 0.0;
    const double employed = rng.Bernoulli(0.6 - 0.1 * config_.qualification_gap * g) ? 1.0 : 0.0;
    const double neighborhood = Clamp(
        config_.proxy_strength * (2.5 + 4.5 * g) +
            (1.0 - config_.proxy_strength) * rng.Uniform(0.0, 10.0) +
            rng.Normal(0.0, 0.5),
        0.0, 10.0);
    x.At(i, 0) = g;
    x.At(i, 1) = age;
    x.At(i, 2) = priors;
    x.At(i, 3) = juvenile;
    x.At(i, 4) = felony;
    x.At(i, 5) = employed;
    x.At(i, 6) = neighborhood;

    // Favorable outcome (1) = does NOT recidivate. Younger age and priors
    // raise risk; employment lowers it; score_shift plants extra recorded
    // risk against the protected group.
    const double risk = 0.30 * (priors - 2.0) + 0.35 * (juvenile - 0.5) -
                        0.05 * (age - 32.0) + 0.3 * felony - 0.5 * employed +
                        config_.score_shift * static_cast<double>(g) +
                        rng.Normal(0.0, 0.4);
    groups[i] = g;
    labels[i] = DrawLabel(1.0 - Sigmoid(risk), g, config_, &rng);
  }
  return Dataset(std::move(schema), std::move(x), std::move(labels),
                 std::move(groups));
}

Schema IncomeGen::MakeSchema() {
  std::vector<FeatureSpec> f;
  f.push_back({"protected", FeatureKind::kBinary, 0, Actionability::kImmutable,
               0.0, 1.0});
  f.push_back(
      {"age", FeatureKind::kNumeric, 0, Actionability::kImmutable, 17.0, 90.0});
  f.push_back({"education_years", FeatureKind::kNumeric, 0,
               Actionability::kIncreaseOnly, 1.0, 21.0});
  f.push_back({"hours_per_week", FeatureKind::kNumeric, 0,
               Actionability::kAny, 1.0, 99.0});
  f.push_back({"capital_gain", FeatureKind::kNumeric, 0,
               Actionability::kIncreaseOnly, 0.0, 20.0});
  f.push_back({"occupation", FeatureKind::kCategorical, 5,
               Actionability::kAny, 0.0, 4.0});
  return Schema(std::move(f), /*sensitive_index=*/0);
}

Dataset IncomeGen::Generate(size_t n, uint64_t seed) const {
  Rng rng(seed);
  Schema schema = MakeSchema();
  Matrix x(n, schema.num_features());
  std::vector<int> labels(n), groups(n);
  // Occupation pay premium per category; the protected group is steered
  // toward low-premium categories with strength proxy_strength.
  const double kPremium[5] = {-0.8, -0.3, 0.0, 0.5, 1.0};
  for (size_t i = 0; i < n; ++i) {
    const int g = rng.Bernoulli(config_.protected_fraction) ? 1 : 0;
    const double age = Clamp(rng.Normal(38.0, 13.0), 17.0, 90.0);
    const double edu = Clamp(rng.Normal(12.0, 3.0), 1.0, 21.0);
    const double hours =
        Clamp(rng.Normal(40.0 - 3.0 * config_.qualification_gap * g, 10.0), 1.0, 99.0);
    const double gain =
        std::max(0.0, rng.Normal(-3.0, 4.0));  // mostly zero, long tail
    std::vector<double> occ_weights(5);
    for (int c = 0; c < 5; ++c) {
      const double steer =
          (g == 1) ? -config_.proxy_strength * kPremium[c] : 0.0;
      occ_weights[c] = std::exp(steer);
    }
    const double occ = static_cast<double>(rng.Categorical(occ_weights));
    x.At(i, 0) = g;
    x.At(i, 1) = age;
    x.At(i, 2) = edu;
    x.At(i, 3) = hours;
    x.At(i, 4) = std::min(gain, 20.0);
    x.At(i, 5) = occ;

    const double z = 0.30 * (edu - 12.0) + 0.05 * (hours - 40.0) +
                     0.02 * (age - 38.0) + 0.35 * x.At(i, 4) +
                     0.8 * kPremium[static_cast<int>(occ)] -
                     config_.score_shift * static_cast<double>(g) - 0.4 +
                     rng.Normal(0.0, 0.5);
    groups[i] = g;
    labels[i] = DrawLabel(Sigmoid(z), g, config_, &rng);
  }
  return Dataset(std::move(schema), std::move(x), std::move(labels),
                 std::move(groups));
}

}  // namespace xfair
