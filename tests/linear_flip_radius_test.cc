// LinearFlipRadius and the growing-spheres shells it lets the search skip
// (DESIGN.md §5.6). Through a LogisticRegression the search skips every
// shell below the radius; through a forwarding wrapper, which the search
// cannot bound, it draws them all. On the three generators' declared
// schemas and on a CSV-inferred one, at thresholds 0.3, 0.5 and 0.7, with
// and without actionability, every result field agrees bit for bit. The
// radius is below the distance of every counterfactual found, projected
// points inside it never flip, nor do points that flip only because Dot
// or Sigmoid rounds, the fallbacks certify nothing, and a factual no
// feasible point flips (the box cap) fails without a draw.

#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "src/data/csv.h"
#include "src/data/generators.h"
#include "src/explain/counterfactual.h"
#include "src/model/logistic_regression.h"
#include "src/obs/obs.h"

namespace xfair {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Forwards scoring to a model without being one of the types the search
/// bounds, so the search draws every shell: the unskipped path.
class Forwarding final : public Model {
 public:
  explicit Forwarding(const Model& inner) : inner_(inner) {
    threshold_ = inner.threshold();
  }
  double PredictProba(const Vector& x) const override {
    return inner_.PredictProba(x);
  }
  int Predict(const Vector& x) const override { return inner_.Predict(x); }
  std::string name() const override { return inner_.name(); }

 private:
  const Model& inner_;
};

enum class Subject { kCredit, kRecidivism, kIncome, kCreditCsv };

/// Rows of each subject; the declared schemas carry immutable,
/// directional, binary and (IncomeGen) categorical features.
constexpr size_t kRows = 240;

/// CreditGen written with WriteCsv and read back under the schema
/// InferSchemaFromCsv gives it: data-padded bounds, all actionable.
Dataset CsvRoundTrip(const Dataset& data) {
  const std::string path = ::testing::TempDir() + "xfair_flip_radius_" +
                           std::to_string(::getpid()) + ".csv";
  XFAIR_CHECK(WriteCsv(data, path).ok());
  const Result<Schema> schema = InferSchemaFromCsv(path);
  XFAIR_CHECK(schema.ok());
  Result<Dataset> read = ReadCsv(*schema, path);
  XFAIR_CHECK(read.ok());
  std::remove(path.c_str());
  return std::move(*read);
}

Dataset Generate(Subject subject) {
  switch (subject) {
    case Subject::kCredit:
      return CreditGen().Generate(kRows, 11);
    case Subject::kRecidivism:
      return RecidivismGen().Generate(kRows, 5);
    case Subject::kIncome:
      return IncomeGen().Generate(kRows, 13);
    case Subject::kCreditCsv:
      return CsvRoundTrip(CreditGen().Generate(kRows, 17));
  }
  return {};
}

std::string SubjectName(Subject subject) {
  switch (subject) {
    case Subject::kCredit:
      return "Credit";
    case Subject::kRecidivism:
      return "Recidivism";
    case Subject::kIncome:
      return "Income";
    case Subject::kCreditCsv:
      return "CreditCsv";
  }
  return "";
}

LogisticRegression Fit(const Dataset& data, double threshold) {
  LogisticRegression model;
  XFAIR_CHECK(model.Fit(data).ok());
  model.set_threshold(threshold);
  return model;
}

std::vector<size_t> DeniedRows(const Model& model, const Dataset& data) {
  std::vector<size_t> rows;
  for (size_t i = 0; i < data.size(); ++i)
    if (model.Predict(data.instance(i)) == 0) rows.push_back(i);
  return rows;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Deltas of the search's counters over one call of `run`.
struct SearchCounts {
  uint64_t samples = 0, skipped = 0, failures = 0;
  uint64_t searches = 0, iterations = 0;
};

template <typename Run>
SearchCounts CountSearch(const Run& run) {
  obs::Counter& samples = obs::GetCounter("cf/samples_evaluated");
  obs::Counter& skipped = obs::GetCounter("cf/shells_skipped");
  obs::Counter& failures = obs::GetCounter("cf/search_failures");
  obs::Histogram& iterations = obs::GetHistogram("cf/search_iterations");
  const SearchCounts before{samples.value(), skipped.value(),
                            failures.value(), iterations.count(),
                            iterations.sum()};
  run();
  return {samples.value() - before.samples, skipped.value() - before.skipped,
          failures.value() - before.failures,
          iterations.count() - before.searches,
          iterations.sum() - before.iterations};
}

using Param = std::tuple<Subject, double, bool>;

class ShellSkipTest : public ::testing::TestWithParam<Param> {
 protected:
  void SetUp() override {
    data_ = Generate(std::get<0>(GetParam()));
    model_ = Fit(data_, std::get<1>(GetParam()));
    config_.respect_actionability = std::get<2>(GetParam());
    rows_ = DeniedRows(model_, data_);
    ASSERT_FALSE(rows_.empty());
  }

  double Radius(size_t row) const {
    return LinearFlipRadius(model_, data_.schema(), data_.instance(row),
                            config_.respect_actionability);
  }

  Dataset data_;
  LogisticRegression model_;
  CounterfactualConfig config_;
  std::vector<size_t> rows_;
};

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  const double t = std::get<1>(info.param);
  return SubjectName(std::get<0>(info.param)) + "_t" +
         std::to_string(static_cast<int>(std::lround(t * 10))) +
         (std::get<2>(info.param) ? "_actionable" : "_unconstrained");
}

TEST_P(ShellSkipTest, SameResultsAsTheUnskippedSearch) {
  const Forwarding forwarded(model_);
  Rng skip_rng(23), draw_rng(23);
  std::vector<CounterfactualResult> skipping, drawing;
  const SearchCounts skip_counts = CountSearch([&] {
    skipping =
        CounterfactualsForRows(model_, data_, rows_, config_, &skip_rng);
  });
  const SearchCounts draw_counts = CountSearch([&] {
    drawing =
        CounterfactualsForRows(forwarded, data_, rows_, config_, &draw_rng);
  });
  ASSERT_EQ(skipping.size(), rows_.size());
  ASSERT_EQ(drawing.size(), rows_.size());
  for (size_t k = 0; k < rows_.size(); ++k) {
    SCOPED_TRACE(rows_[k]);
    const CounterfactualResult& a = skipping[k];
    const CounterfactualResult& b = drawing[k];
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(Bits(a.distance), Bits(b.distance));
    EXPECT_EQ(a.sparsity, b.sparsity);
    EXPECT_EQ(a.iterations, b.iterations);
    ASSERT_EQ(a.counterfactual.size(), b.counterfactual.size());
    for (size_t c = 0; c < a.counterfactual.size(); ++c)
      EXPECT_EQ(Bits(a.counterfactual[c]), Bits(b.counterfactual[c])) << c;
  }
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(skip_counts.samples + skip_counts.skipped, 0u);
  EXPECT_EQ(draw_counts.samples + draw_counts.searches, 0u);
#else
  // Skipped shells draw nothing; iterations and failures keep their
  // values, and only the logistic model skips.
  const uint64_t per_shell = config_.samples_per_sphere;
  EXPECT_EQ(skip_counts.samples + skip_counts.skipped * per_shell,
            draw_counts.samples);
  EXPECT_EQ(draw_counts.skipped, 0u);
  EXPECT_EQ(skip_counts.failures, draw_counts.failures);
  EXPECT_EQ(skip_counts.searches, rows_.size());
  EXPECT_EQ(draw_counts.searches, rows_.size());
  EXPECT_EQ(skip_counts.iterations, draw_counts.iterations);
#endif
}

TEST_P(ShellSkipTest, RadiusIsBelowEveryCounterfactualDistance) {
  Rng rng(29);
  const std::vector<CounterfactualResult> results =
      CounterfactualsForRows(model_, data_, rows_, config_, &rng);
  size_t valid = 0, certified = 0;
  for (size_t k = 0; k < rows_.size(); ++k) {
    const double radius = Radius(rows_[k]);
    EXPECT_GE(radius, 0.0);
    certified += radius > 0.0 ? 1 : 0;
    if (!results[k].valid) continue;
    ++valid;
    EXPECT_LE(radius, results[k].distance) << rows_[k];
  }
  EXPECT_GT(valid, 0u);
  EXPECT_GT(certified, 0u);
}

TEST_P(ShellSkipTest, ProjectedPointsInsideTheRadiusNeverFlip) {
  const Schema& schema = data_.schema();
  const size_t d = schema.num_features();
  Vector ranges(d), uphill(d);
  for (size_t c = 0; c < d; ++c) {
    ranges[c] = FeatureRange(schema.feature(c));
    uphill[c] = model_.weights()[c] * ranges[c];
  }
  Rng rng(31);
  for (size_t row : rows_) {
    const Vector x = data_.instance(row);
    const double radius = Radius(row);
    // The box cap admits steps of any length.
    const double reach = radius == kInfinity ? 1e6 : radius;
    for (int k = 0; k < 48; ++k) {
      // Random directions, and directions near the score's gradient in
      // range-normalized space, where the bound is tightest.
      Vector dir(d);
      for (size_t c = 0; c < d; ++c) {
        dir[c] = rng.Normal();
        if (k % 2 == 1) dir[c] = uphill[c] + 0.05 * dir[c] * Norm2(uphill);
      }
      const double length = reach * (k < 2 ? 0.999999 : rng.Uniform());
      const double scale = length / Norm2(dir);
      Vector cand = x;
      for (size_t c = 0; c < d; ++c) cand[c] += scale * ranges[c] * dir[c];
      ProjectToFeasible(schema, x, config_.respect_actionability, &cand);
      ASSERT_EQ(model_.Predict(cand), 0)
          << "row " << row << " radius " << radius << " length " << length;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Subjects, ShellSkipTest,
    ::testing::Combine(::testing::Values(Subject::kCredit,
                                         Subject::kRecidivism,
                                         Subject::kIncome,
                                         Subject::kCreditCsv),
                       ::testing::Values(0.3, 0.5, 0.7), ::testing::Bool()),
    ParamName);

/// A denied CreditGen factual under its fitted model.
struct Denied {
  Dataset data = CreditGen().Generate(kRows, 11);
  LogisticRegression model = Fit(data, 0.5);
  Vector x = data.instance(DeniedRows(model, data).at(0));
};

TEST(LinearFlipRadius, FactualOutsideItsBoundsCertifiesNothing) {
  Denied f;
  const Schema& schema = f.data.schema();
  EXPECT_GT(LinearFlipRadius(f.model, schema, f.x, true), 0.0);
  for (double bad : {schema.feature(2).upper + 1.0,
                     schema.feature(2).lower - 1.0,
                     std::numeric_limits<double>::quiet_NaN()}) {
    Vector x = f.x;
    x[2] = bad;
    EXPECT_EQ(LinearFlipRadius(f.model, schema, x, true), 0.0) << bad;
    EXPECT_EQ(LinearFlipRadius(f.model, schema, x, false), 0.0) << bad;
  }
}

TEST(LinearFlipRadius, InvalidCodeCertifiesNothing) {
  Denied f;
  Vector x = f.x;
  x[0] = 0.5;  // "protected" is binary.
  EXPECT_EQ(LinearFlipRadius(f.model, f.data.schema(), x, false), 0.0);

  const Dataset income = IncomeGen().Generate(kRows, 13);
  const LogisticRegression model = Fit(income, 0.5);
  const Vector row = income.instance(DeniedRows(model, income).at(0));
  EXPECT_GT(LinearFlipRadius(model, income.schema(), row, true), 0.0);
  const size_t occupation = 5;  // Categorical, arity 5, bounds [0, 4].
  ASSERT_EQ(income.schema().feature(occupation).kind,
            FeatureKind::kCategorical);
  x = row;
  x[occupation] = 2.5;
  EXPECT_EQ(LinearFlipRadius(model, income.schema(), x, true), 0.0);
}

TEST(LinearFlipRadius, ThresholdOutsideTheOpenUnitIntervalCertifiesNothing) {
  Denied f;
  for (double t : {0.0, 1.0, -0.5, 1.5}) {
    f.model.set_threshold(t);
    EXPECT_EQ(LinearFlipRadius(f.model, f.data.schema(), f.x, true), 0.0)
        << t;
  }
}

TEST(LinearFlipRadius, FactualAtTheTargetCertifiesNothing) {
  Denied f;
  for (size_t i = 0; i < f.data.size(); ++i) {
    const Vector x = f.data.instance(i);
    if (f.model.Predict(x) != 1) continue;
    EXPECT_EQ(LinearFlipRadius(f.model, f.data.schema(), x, true), 0.0);
  }
}

TEST(LinearFlipRadius, FlipsOnlyRoundingMakesStayOutsideTheRadius) {
  // kernels::Dot rounds a margin of about 1e6: the candidate's real
  // margin is -5e-11, but it scores exactly 0, and Sigmoid(0) passes 0.5.
  const Schema large(
      {FeatureSpec{"a", FeatureKind::kNumeric, 0, Actionability::kImmutable,
                   0.0, 2e6},
       FeatureSpec{"c", FeatureKind::kNumeric, 0, Actionability::kAny, -1.0,
                   1.0}},
      -1);
  LogisticRegression model;
  model.SetParameters({1.0, 1.0}, -1e6);
  Vector x = {1e6, -2e-10}, flip = {1e6, -5e-11};
  ASSERT_EQ(model.Predict(x), 0);
  ASSERT_EQ(model.Predict(flip), 1);
  EXPECT_LE(LinearFlipRadius(model, large, x, true),
            NormalizedDistance(large, x, flip));

  // Near a threshold of 1 - 4 ulp, 1 + e^-m rounds down: Sigmoid(35.2)
  // passes the threshold although the real sigmoid stays below it up to
  // a margin of 35.35.
  const Schema unit({FeatureSpec{"m", FeatureKind::kNumeric, 0,
                                 Actionability::kAny, 0.0, 100.0}},
                    -1);
  model.SetParameters({1.0}, 0.0);
  model.set_threshold(0.9999999999999996);
  x = {35.0};
  flip = {35.2};
  ASSERT_EQ(model.Predict(x), 0);
  ASSERT_EQ(model.Predict(flip), 1);
  EXPECT_LE(LinearFlipRadius(model, unit, x, true),
            NormalizedDistance(unit, x, flip));
}

TEST(LinearFlipRadius, AllImmutableSchemaIsTheBoxCap) {
  const Schema schema(
      {FeatureSpec{"a", FeatureKind::kNumeric, 0, Actionability::kImmutable,
                   0.0, 10.0},
       FeatureSpec{"b", FeatureKind::kBinary, 0, Actionability::kImmutable,
                   0.0, 1.0}},
      -1);
  LogisticRegression model;
  model.SetParameters({0.5, 1.0}, -4.0);
  const Vector x = {2.0, 1.0};  // Margin -2: denied.
  ASSERT_EQ(model.Predict(x), 0);
  EXPECT_EQ(LinearFlipRadius(model, schema, x, true), kInfinity);
  // Unconstrained, "a" may rise to 10: the margin can reach +2.
  const double open = LinearFlipRadius(model, schema, x, false);
  EXPECT_GT(open, 0.0);
  EXPECT_LT(open, kInfinity);

  CounterfactualConfig config;
  Rng rng(37), reference(37);
  CounterfactualResult r;
  const SearchCounts counts = CountSearch([&] {
    r = GrowingSpheresCounterfactual(model, schema, x, config, &rng);
  });
  EXPECT_FALSE(r.valid);
  EXPECT_EQ(r.iterations, config.max_iterations);
  EXPECT_EQ(r.counterfactual, x);
  EXPECT_EQ(r.distance, 0.0);
  EXPECT_EQ(r.sparsity, 0u);
  // The caller's stream is split as before.
  reference.Split();
  EXPECT_EQ(rng.Uniform(), reference.Uniform());
#ifdef XFAIR_OBS_DISABLED
  EXPECT_EQ(counts.skipped + counts.failures + counts.searches, 0u);
#else
  EXPECT_EQ(counts.samples, 0u);
  EXPECT_EQ(counts.skipped, config.max_iterations);
  EXPECT_EQ(counts.failures, 1u);
  EXPECT_EQ(counts.iterations, config.max_iterations);
#endif
}

TEST(LinearFlipRadius, RecidivismFailuresAreAllBoxCapped) {
  // On RecidivismGen most denied rows cannot reach recourse: the features
  // that lower the risk score are immutable or already at their bounds.
  // The box cap proves every search that fails unreachable, so none of
  // them draws a candidate.
  const Dataset data = RecidivismGen().Generate(600, 5);
  const LogisticRegression model = Fit(data, 0.5);
  const std::vector<size_t> rows = DeniedRows(model, data);
  const Forwarding forwarded(model);
  Rng rng(41);
  const std::vector<CounterfactualResult> drawn =
      CounterfactualsForRows(forwarded, data, rows, {}, &rng);
  size_t failures = 0;
  for (size_t k = 0; k < rows.size(); ++k) {
    const double radius =
        LinearFlipRadius(model, data.schema(), data.instance(rows[k]), true);
    if (drawn[k].valid) {
      EXPECT_LT(radius, kInfinity) << rows[k];
      continue;
    }
    ++failures;
    EXPECT_EQ(drawn[k].iterations, CounterfactualConfig{}.max_iterations);
    EXPECT_EQ(radius, kInfinity) << rows[k];
  }
  EXPECT_GT(failures, rows.size() / 2);
}

}  // namespace
}  // namespace xfair
