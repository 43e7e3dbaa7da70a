// LogisticRegression::Fit's damped Newton solve (DESIGN.md §5.5) against
// the gradient-descent fit it replaced (tests/oracles/lr_fit_oracle.h).
// On the three generators, at three sizes, with and without reweighing,
// the Newton fit's objective is no higher than the oracle's and its
// gradient is below the stopping tolerance; on the 24k-row subjects
// every row gets the oracle's decision. Degenerate inputs still end in
// finite, converged parameters, and a fit that cannot converge says so
// with a warning event.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/data/generators.h"
#include "src/mitigate/preprocess.h"
#include "src/model/logistic_regression.h"
#include "src/obs/eventlog.h"
#include "src/obs/obs.h"
#include "tests/oracles/lr_fit_oracle.h"

namespace xfair {
namespace {

/// LogisticRegression::Fit's stopping tolerance on the gradient.
constexpr double kTolerance = 1e-6;

enum class Gen { kCredit, kRecidivism, kIncome };

Dataset Generate(Gen gen, size_t n, uint64_t seed) {
  switch (gen) {
    case Gen::kCredit:
      return CreditGen().Generate(n, seed);
    case Gen::kRecidivism:
      return RecidivismGen().Generate(n, seed);
    case Gen::kIncome:
      return IncomeGen().Generate(n, seed);
  }
  return {};
}

/// The same rows with other labels.
Dataset WithLabels(const Dataset& data, std::vector<int> labels) {
  return Dataset(data.schema(), data.x(), std::move(labels), data.groups());
}

/// Turns the event log on (emptied) for one test and off again after.
struct EventLogGuard {
  EventLogGuard() {
    obs::ResetEventLog();
    obs::SetEventLogEnabled(true);
  }
  ~EventLogGuard() {
    obs::SetEventLogEnabled(false);
    obs::ResetEventLog();
  }
};

size_t NotConvergedEvents() {
  const auto events = obs::SnapshotEvents();
  return static_cast<size_t>(
      std::count_if(events.begin(), events.end(), [](const auto& e) {
        return e.event == "fit_not_converged";
      }));
}

/// Fits `data` and expects finite parameters at which the gradient is
/// below the tolerance, reached without a non-convergence warning.
LogisticRegression ExpectConvergedFit(const Dataset& data,
                                      const Vector& weights = {}) {
  EventLogGuard log;
  LogisticRegression model;
  EXPECT_TRUE(model.Fit(data, weights).ok());
  for (double w : model.weights()) EXPECT_TRUE(std::isfinite(w));
  EXPECT_TRUE(std::isfinite(model.bias()));
  EXPECT_LT(
      oracles::EvaluateLogisticObjective(model, data, weights)
          .gradient_inf_norm,
      kTolerance);
  EXPECT_EQ(NotConvergedEvents(), 0u);
  return model;
}

class NewtonFitTest
    : public ::testing::TestWithParam<std::tuple<Gen, size_t, bool>> {};

/// "Credit24000Reweighed" and the like.
std::string CaseName(
    const ::testing::TestParamInfo<NewtonFitTest::ParamType>& info) {
  constexpr const char* kGenNames[] = {"Credit", "Recidivism", "Income"};
  const auto& [gen, n, reweighed] = info.param;
  return std::string(kGenNames[static_cast<int>(gen)])
      .append(std::to_string(n))
      .append(reweighed ? "Reweighed" : "Plain");
}

TEST_P(NewtonFitTest, ReachesTheOptimumTheOracleApproaches) {
  const auto [gen, n, reweighed] = GetParam();
  const Dataset data = Generate(gen, n, 17 + n);
  const Vector weights = reweighed ? ReweighingWeights(data) : Vector{};
  const LogisticRegression newton = ExpectConvergedFit(data, weights);
  auto gd = oracles::FitLogisticRegressionGd(data, weights);
  ASSERT_TRUE(gd.ok());
  EXPECT_LE(oracles::EvaluateLogisticObjective(newton, data, weights).value,
            oracles::EvaluateLogisticObjective(*gd, data, weights).value);
  if (n < 24000) return;
  const Vector p_newton = newton.PredictProbaBatch(data.x());
  const Vector p_gd = gd->PredictProbaBatch(data.x());
  size_t flips = 0;
  double max_diff = 0.0;
  for (size_t i = 0; i < n; ++i) {
    flips += (p_newton[i] >= 0.5) != (p_gd[i] >= 0.5);
    max_diff = std::max(max_diff, std::fabs(p_newton[i] - p_gd[i]));
  }
  EXPECT_EQ(flips, 0u);
  EXPECT_LE(max_diff, 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Generators, NewtonFitTest,
    ::testing::Combine(::testing::Values(Gen::kCredit, Gen::kRecidivism,
                                         Gen::kIncome),
                       ::testing::Values(size_t{500}, size_t{4000},
                                         size_t{24000}),
                       ::testing::Bool()),
    CaseName);

TEST(NewtonFit, AllOneAndAllZeroLabelsConverge) {
  const Dataset data = CreditGen().Generate(300, 5);
  const LogisticRegression ones =
      ExpectConvergedFit(WithLabels(data, std::vector<int>(300, 1)));
  EXPECT_GT(ones.PredictProba(data.instance(0)), 0.99);
  const LogisticRegression zeros =
      ExpectConvergedFit(WithLabels(data, std::vector<int>(300, 0)));
  EXPECT_LT(zeros.PredictProba(data.instance(0)), 0.01);
}

TEST(NewtonFit, ConstantColumnGetsZeroWeight) {
  const Dataset base = IncomeGen().Generate(400, 6);
  Matrix x = base.x();
  for (size_t i = 0; i < x.rows(); ++i) x.At(i, 1) = 3.5;
  const Dataset data(base.schema(), std::move(x), base.labels(),
                     base.groups());
  const LogisticRegression model = ExpectConvergedFit(data);
  EXPECT_EQ(model.weights()[1], 0.0);
}

TEST(NewtonFit, ZeroWeightRowsAreSkipped) {
  const Dataset data = RecidivismGen().Generate(600, 7);
  Vector weights(data.size(), 1.0);
  std::vector<int> flipped = data.labels();
  for (size_t i = 0; i < data.size(); i += 3) {
    weights[i] = 0.0;
    flipped[i] = 1 - flipped[i];
  }
  const LogisticRegression a = ExpectConvergedFit(data, weights);
  const LogisticRegression b =
      ExpectConvergedFit(WithLabels(data, flipped), weights);
  // A skipped row's label never enters the fit: same bits.
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_EQ(a.bias(), b.bias());
}

TEST(NewtonFit, SingleRowConverges) {
  const Dataset data = CreditGen().Generate(1, 8);
  for (int label : {0, 1}) {
    SCOPED_TRACE(label);
    const LogisticRegression model =
        ExpectConvergedFit(WithLabels(data, {label}));
    EXPECT_EQ(model.Predict(data.instance(0)), label);
  }
}

TEST(NewtonFit, CountsIterationsAndHalvings) {
  obs::Counter& iterations =
      obs::GetCounter("model/logistic_regression/newton_iterations");
  obs::Counter& halvings =
      obs::GetCounter("model/logistic_regression/step_halvings");
  // On a generator the full Newton step is always taken.
  uint64_t iterations_before = iterations.value();
  uint64_t halvings_before = halvings.value();
  ExpectConvergedFit(CreditGen().Generate(24000, 1));
  const uint64_t newton_steps = iterations.value() - iterations_before;
  const uint64_t full_steps_halved = halvings.value() - halvings_before;
  // A negative weight makes the objective indefinite; damping keeps every
  // step from raising it, and the fit still converges.
  const Schema schema({FeatureSpec{"a"}, FeatureSpec{"b"}}, -1);
  const Dataset indefinite(
      schema, Matrix::FromRows({{1.0, -1.0}, {-2.0, 0.0}, {1.0, -1.0}}),
      {1, 1, 1}, {0, 1, 0});
  halvings_before = halvings.value();
  ExpectConvergedFit(indefinite, {2.0, -1.0, 2.0});
  const uint64_t damped_steps_halved = halvings.value() - halvings_before;
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(newton_steps, 0u);
  EXPECT_EQ(damped_steps_halved, 0u);
#else
  EXPECT_GE(newton_steps, 1u);
  EXPECT_LE(newton_steps, 10u);
  EXPECT_GT(damped_steps_halved, 0u);
#endif
  EXPECT_EQ(full_steps_halved, 0u);
}

TEST(NewtonFit, UnboundedObjectiveEndsAtTheCapWithAWarning) {
  // A negative instance weight makes the objective unbounded below: the
  // bias grows at every step and the gradient never vanishes.
  const Schema schema({FeatureSpec{"x"}}, -1);
  const Dataset data(schema, Matrix::FromRows({{1.0}, {1.0}}), {1, 0},
                     {0, 1});
  const Vector weights = {2.0, -1.5};
  obs::Counter& iterations =
      obs::GetCounter("model/logistic_regression/newton_iterations");
  const uint64_t before = iterations.value();
  EventLogGuard log;
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data, weights).ok());
  EXPECT_TRUE(std::isfinite(model.bias()));
  EXPECT_GT(oracles::EvaluateLogisticObjective(model, data, weights)
                .gradient_inf_norm,
            kTolerance);
  const auto events = obs::SnapshotEvents();
#ifdef XFAIR_OBS_DISABLED
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(iterations.value(), before);
#else
  ASSERT_EQ(NotConvergedEvents(), 1u);
  const auto warning =
      std::find_if(events.begin(), events.end(), [](const auto& e) {
        return e.event == "fit_not_converged";
      });
  EXPECT_EQ(warning->severity, obs::Severity::kWarn);
  EXPECT_EQ(warning->component, "model");
  EXPECT_EQ(warning->fields.at("model"), "logistic_regression");
  EXPECT_EQ(warning->fields.at("iterations"),
            std::to_string(iterations.value() - before));
  EXPECT_GT(iterations.value() - before, 10u);
#endif
}

}  // namespace
}  // namespace xfair
