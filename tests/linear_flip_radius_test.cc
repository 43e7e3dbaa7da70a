// LinearFlipRadius and LinearCandidateBound, and the growing-spheres
// shells and candidates they let the search skip (DESIGN.md §5.6).
// Through a LogisticRegression the search skips every shell below the
// radius and finishes no candidate the bound rejects; through a
// forwarding wrapper, which the search cannot bound, it draws and
// finishes them all. On the three generators' declared schemas and on a
// CSV-inferred one, at thresholds 0.3, 0.5 and 0.7, with and without
// actionability, every result field agrees bit for bit. The radius is
// below the distance of every counterfactual found, projected points
// inside it never flip, rejected candidates never flip, nor do points
// that flip only because Dot or Sigmoid rounds; discrete features count
// only once a step can round them, the Box-Muller arcs hold every angle
// drawn in them, the fallbacks certify nothing, and a factual no feasible
// point flips (the box cap) fails without a draw.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numbers>
#include <string>
#include <tuple>
#include <vector>

#include "src/data/csv.h"
#include "src/data/generators.h"
#include "src/explain/counterfactual.h"
#include "src/model/logistic_regression.h"
#include "src/obs/obs.h"
#include "src/util/kernels.h"

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
  uint64_t samples = 0, skipped = 0, rejected = 0, failures = 0;
  uint64_t searches = 0, iterations = 0;
};

template <typename Run>
SearchCounts CountSearch(const Run& run) {
  obs::Counter& samples = obs::GetCounter("cf/samples_evaluated");
  obs::Counter& skipped = obs::GetCounter("cf/shells_skipped");
  obs::Counter& rejected = obs::GetCounter("cf/candidates_rejected");
  obs::Counter& failures = obs::GetCounter("cf/search_failures");
  obs::Histogram& iterations = obs::GetHistogram("cf/search_iterations");
  const SearchCounts before{samples.value(),    skipped.value(),
                            rejected.value(),   failures.value(),
                            iterations.count(), iterations.sum()};
  run();
  return {samples.value() - before.samples,
          skipped.value() - before.skipped,
          rejected.value() - before.rejected,
          failures.value() - before.failures,
          iterations.count() - before.searches,
          iterations.sum() - before.iterations};
}

/// Per-feature ranges, as the search hoists them.
Vector Ranges(const Schema& schema) {
  Vector ranges(schema.num_features());
  for (size_t c = 0; c < ranges.size(); ++c)
    ranges[c] = FeatureRange(schema.feature(c));
  return ranges;
}

/// The candidate growing spheres finishes from its Box-Muller draws and
/// jittered radius, computed as the search computes it: x + (r / ||dir||)
/// (range ⊙ dir), projected.
Vector FinishCandidate(const Schema& schema, const Vector& x,
                       const std::vector<Rng::Polar>& polar, double r,
                       bool respect_actionability) {
  Vector dir(2 * polar.size());
  for (size_t k = 0; k < polar.size(); ++k)
    std::tie(dir[2 * k], dir[2 * k + 1]) = Rng::NormalPair(polar[k]);
  const double norm = std::sqrt(
      std::max(kernels::Dot(dir.data(), dir.data(), x.size()), 1e-12));
  const Vector ranges = Ranges(schema);
  Vector cand = x;
  kernels::ScaledAxpy(r / norm, ranges.data(), dir.data(), cand.data(),
                      cand.size());
  ProjectToFeasible(schema, x, respect_actionability, &cand);
  return cand;
}

/// Box-Muller draws whose pairs point along `dir` (an odd length padded
/// with a zero sine), up to the rounding of hypot and atan2.
std::vector<Rng::Polar> PolarAlong(const Vector& dir) {
  std::vector<Rng::Polar> polar((dir.size() + 1) / 2);
  for (size_t k = 0; k < polar.size(); ++k) {
    const double a = dir[2 * k];
    const double b = 2 * k + 1 < dir.size() ? dir[2 * k + 1] : 0.0;
    double u2 = std::atan2(b, a) / (2.0 * std::numbers::pi);
    if (u2 < 0.0) u2 += 1.0;
    polar[k] = {std::hypot(a, b), u2 < 1.0 ? u2 : 0.0};
  }
  return polar;
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
  EXPECT_EQ(skip_counts.rejected + draw_counts.rejected, 0u);
  EXPECT_EQ(draw_counts.samples + draw_counts.searches, 0u);
#else
  // Skipped shells draw nothing; rejected candidates are drawn, so they
  // count as samples; iterations and failures keep their values, and
  // only the logistic model skips or rejects.
  const uint64_t per_shell = config_.samples_per_sphere;
  EXPECT_EQ(skip_counts.samples + skip_counts.skipped * per_shell,
            draw_counts.samples);
  EXPECT_LE(skip_counts.rejected, skip_counts.samples);
  EXPECT_EQ(draw_counts.skipped, 0u);
  EXPECT_EQ(draw_counts.rejected, 0u);
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

TEST_P(ShellSkipTest, RejectedCandidatesNeverFlip) {
  // Candidates drawn as the search draws them, on the first dozen shells
  // it draws, alternating with directions near the score's gradient in
  // range-normalized space, where the bound is tightest. Every candidate
  // the bound rejects is finished and must not flip.
  const Schema& schema = data_.schema();
  const size_t d = schema.num_features();
  const bool actionable = config_.respect_actionability;
  Vector uphill(d);
  for (size_t c = 0; c < d; ++c)
    uphill[c] = model_.weights()[c] * FeatureRange(schema.feature(c));
  Rng rng(43);
  std::vector<Rng::Polar> polar((d + 1) / 2);
  size_t rejected = 0;
  for (size_t row : rows_) {
    const Vector x = data_.instance(row);
    const LinearCandidateBound bound(model_, schema, x, actionable);
    double radius = config_.initial_radius;
    size_t shell = 0;
    for (; shell < config_.max_iterations && radius < bound.FlipRadius();
         ++shell)
      radius *= config_.radius_growth;
    for (size_t k = 0; k < 12 && shell < config_.max_iterations;
         ++k, ++shell, radius *= config_.radius_growth) {
      for (size_t s = 0; s < config_.samples_per_sphere; ++s) {
        if (s % 2 == 0) {
          for (Rng::Polar& p : polar) p = rng.NormalPolar();
        } else {
          Vector dir(d);
          for (size_t c = 0; c < d; ++c)
            dir[c] = uphill[c] + 0.05 * rng.Normal() * Norm2(uphill);
          polar = PolarAlong(dir);
        }
        const double r = radius * (0.7 + 0.3 * rng.Uniform());
        if (!bound.Rejects(polar.data(), r)) continue;
        ++rejected;
        ASSERT_EQ(
            model_.Predict(FinishCandidate(schema, x, polar, r, actionable)),
            0)
            << "row " << row << " shell " << shell << " r " << r;
      }
    }
  }
  // Every subject has rows whose drawn shells the bound thins.
  EXPECT_GT(rejected, 0u);
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

TEST(LinearFlipRadius, DiscreteFeaturesCountOnceAStepCanRoundThem) {
  // A step shorter than half a code leaves a binary or categorical
  // feature, such as IncomeGen's occupation, where it is. Credited their
  // gains at every radius, the discrete features left 20 of these 107
  // denied rows a positive radius; charged the step that rounds each, they
  // leave every one of them.
  const Dataset data = IncomeGen().Generate(kRows, 13);
  const LogisticRegression model = Fit(data, 0.3);
  const std::vector<size_t> rows = DeniedRows(model, data);
  size_t certified = 0;
  for (size_t row : rows)
    certified +=
        LinearFlipRadius(model, data.schema(), data.instance(row), false) >
        0.0;
  EXPECT_EQ(rows.size(), 107u);
  EXPECT_EQ(certified, 107u);
}

/// Sweeps the jittered radius over (0, r_max] along `polar`: no candidate
/// the bound rejects flips, and some candidate flips although its margin
/// in real numbers, `real_margin`, stays below logit(threshold).
template <typename RealMargin>
void ExpectNoRejectedFlip(const LogisticRegression& model,
                          const Schema& schema, const Vector& x,
                          const std::vector<Rng::Polar>& polar, double r_max,
                          const RealMargin& real_margin) {
  const LinearCandidateBound bound(model, schema, x, true);
  const double t = model.threshold();
  const double logit_t = std::log(t / (1.0 - t));
  size_t rounding_flips = 0;
  for (int i = 1; i <= 2000; ++i) {
    const double r = r_max * i / 2000;
    const Vector cand = FinishCandidate(schema, x, polar, r, true);
    if (model.Predict(cand) != 1) continue;
    rounding_flips += real_margin(cand) < logit_t;
    EXPECT_FALSE(bound.Rejects(polar.data(), r)) << "r " << r;
  }
  EXPECT_GT(rounding_flips, 0u);
}

TEST(LinearCandidateBound, RejectsNoFlipOnlyRoundingMakes) {
  // kernels::Dot rounds a margin of about 1e6 to exactly 0 for a step on
  // "c" that leaves its real margin near -5e-11, and Sigmoid(0) passes
  // 0.5. The direction is u2 = 1/4, an arc boundary: theta = pi / 2.
  const Schema large(
      {FeatureSpec{"a", FeatureKind::kNumeric, 0, Actionability::kImmutable,
                   0.0, 2e6},
       FeatureSpec{"c", FeatureKind::kNumeric, 0, Actionability::kAny, -1.0,
                   1.0}},
      -1);
  LogisticRegression model;
  model.SetParameters({1.0, 1.0}, -1e6);
  const Vector x = {1e6, -2e-10};
  ASSERT_EQ(model.Predict(x), 0);
  ExpectNoRejectedFlip(model, large, x, {{1.0, 0.25}}, 2e-10,
                       [](const Vector& cand) { return cand[1]; });

  // Near a threshold of 1 - 4 ulp, 1 + e^-m rounds down: margins from
  // 35.2 pass it although the real sigmoid stays below it up to 35.35.
  // The direction is u2 = 0, theta = 0, along "m"; "n" scores nothing.
  const Schema unit(
      {FeatureSpec{"m", FeatureKind::kNumeric, 0, Actionability::kAny, 0.0,
                   100.0},
       FeatureSpec{"n", FeatureKind::kNumeric, 0, Actionability::kAny, 0.0,
                   1.0}},
      -1);
  model.SetParameters({1.0, 0.0}, 0.0);
  model.set_threshold(0.9999999999999996);
  ASSERT_EQ(model.Predict({35.0, 0.5}), 0);
  ExpectNoRejectedFlip(model, unit, {35.0, 0.5}, {{1.0, 0.0}}, 0.004,
                       [](const Vector& cand) { return cand[0]; });
}

TEST(LinearCandidateBound, OddDimensionLeavesTheLastSineOutOfTheNorm) {
  // d = 3: the second draw gives "c" its cosine, here about 6e-16, and its
  // sine of 10 pads the direction. ||dir|| is then about 1, not 10; a
  // bound that counted the pad would shrink the step tenfold and reject
  // the candidates that reach 0.5 on "a".
  const Schema schema(
      {FeatureSpec{"a", FeatureKind::kNumeric, 0, Actionability::kAny, 0.0,
                   1.0},
       FeatureSpec{"b", FeatureKind::kNumeric, 0, Actionability::kAny, 0.0,
                   1.0},
       FeatureSpec{"c", FeatureKind::kNumeric, 0, Actionability::kAny, 0.0,
                   1.0}},
      -1);
  LogisticRegression model;
  model.SetParameters({1.0, 0.0, 0.0}, -0.5);
  const Vector x = {0.0, 0.0, 0.0};
  ASSERT_EQ(model.Predict(x), 0);
  const std::vector<Rng::Polar> polar = {{1.0, 0.0}, {10.0, 0.25}};
  const LinearCandidateBound bound(model, schema, x, true);
  size_t flips = 0;
  for (double r : {0.2, 0.45, 0.55, 0.8, 1.0}) {
    const bool flip =
        model.Predict(FinishCandidate(schema, x, polar, r, true)) == 1;
    flips += flip;
    EXPECT_EQ(bound.Rejects(polar.data(), r), !flip) << r;
  }
  EXPECT_EQ(flips, 3u);
}

TEST(LinearCandidateBound, DiscreteGainCountsOnceTheStepCanRoundTheCode) {
  // A binary "b" worth 10 in margin and a continuous "c" worth at most 1:
  // the factual (0, 0), at margin -5, flips only once "b" rounds to 1,
  // which takes a raw step of 1/2. Along "b" (u2 = 0) the step is r.
  const Schema schema(
      {FeatureSpec{"b", FeatureKind::kBinary, 0, Actionability::kAny, 0.0,
                   1.0},
       FeatureSpec{"c", FeatureKind::kNumeric, 0, Actionability::kAny, 0.0,
                   1.0}},
      -1);
  LogisticRegression model;
  model.SetParameters({10.0, 1.0}, -5.0);
  const Vector x = {0.0, 0.0};
  ASSERT_EQ(model.Predict(x), 0);
  const LinearCandidateBound bound(model, schema, x, true);
  EXPECT_EQ(bound.FlipRadius(), LinearFlipRadius(model, schema, x, true));
  EXPECT_GT(bound.FlipRadius(), 0.4999);
  EXPECT_LE(bound.FlipRadius(), 0.5);
  const std::vector<Rng::Polar> along_b = {{1.0, 0.0}};
  for (double r : {0.1, 0.3, 0.49, 0.4999}) {
    EXPECT_TRUE(bound.Rejects(along_b.data(), r)) << r;
    EXPECT_EQ(model.Predict(FinishCandidate(schema, x, along_b, r, true)), 0)
        << r;
  }
  for (double r : {0.5, 0.6, 1.0}) {
    EXPECT_FALSE(bound.Rejects(along_b.data(), r)) << r;
    EXPECT_EQ(model.Predict(FinishCandidate(schema, x, along_b, r, true)), 1)
        << r;
  }
}

TEST(LinearCandidateBound, ArcsHoldEveryAngleDrawnInThem) {
  // u2 on each of the 64 arc boundaries and just below the next one
  // selects that arc, and the arc's ranges are widened past the cos and
  // sin computed at both of its ends. Every u2 drawn, the boundaries
  // included, computes a cos and a sin inside its arc's ranges.
  constexpr size_t kArcs = 64;
  std::vector<double> u2s;
  for (size_t j = 0; j < kArcs; ++j) {
    const double start = static_cast<double>(j) / kArcs;
    const double end = static_cast<double>(j + 1) / kArcs;
    const detail::TrigArc& arc = detail::BoxMullerArc(start);
    EXPECT_EQ(&detail::BoxMullerArc(std::nextafter(end, 0.0)), &arc) << j;
    const auto [cos0, sin0] = Rng::NormalPair({1.0, start});
    const auto [cos1, sin1] = Rng::NormalPair({1.0, end});
    EXPECT_LT(arc.cos_lo, std::min(cos0, cos1)) << j;
    EXPECT_GT(arc.cos_hi, std::max(cos0, cos1)) << j;
    EXPECT_LT(arc.sin_lo, std::min(sin0, sin1)) << j;
    EXPECT_GT(arc.sin_hi, std::max(sin0, sin1)) << j;
    u2s.push_back(start);
    u2s.push_back(std::nextafter(end, 0.0));
  }
  Rng rng(47);
  for (int i = 0; i < 100000; ++i) u2s.push_back(rng.Uniform());
  for (double u2 : u2s) {
    const detail::TrigArc& arc = detail::BoxMullerArc(u2);
    const auto [cos, sin] = Rng::NormalPair({1.0, u2});
    ASSERT_GE(cos, arc.cos_lo) << u2;
    ASSERT_LE(cos, arc.cos_hi) << u2;
    ASSERT_GE(sin, arc.sin_lo) << u2;
    ASSERT_LE(sin, arc.sin_hi) << u2;
  }
}

}  // namespace
}  // namespace xfair
