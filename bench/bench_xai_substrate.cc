// Experiment A10 (paper §III substrate): quality/cost characterization of
// the XAI machinery everything in §IV builds on.
//  a. Counterfactual generators (Wachter vs growing spheres) on a linear
//     and an ensemble model: validity, distance, sparsity.
//  b. Exact vs sampled SHAP: error against evaluation budget.
//  c. Surrogate fidelity (local and global) against black-box complexity.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "src/data/generators.h"
#include "src/explain/counterfactual.h"
#include "src/explain/shap.h"
#include "src/explain/surrogate.h"
#include "src/model/logistic_regression.h"
#include "src/model/gbm.h"
#include "src/model/random_forest.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace xfair {
namespace {

void PrintOnce() {
  static bool printed = false;
  if (printed) return;
  printed = true;
  Dataset data = CreditGen().Generate(800, 161);
  LogisticRegression lr;
  XFAIR_CHECK(lr.Fit(data).ok());
  RandomForest forest;
  RandomForestOptions fo;
  fo.num_trees = 20;
  XFAIR_CHECK(forest.Fit(data, fo).ok());
  GradientBoostedTrees gbm;
  XFAIR_CHECK(gbm.Fit(data).ok());

  // a. CF generator comparison.
  {
    AsciiTable t({"model", "generator", "validity", "mean dist",
                  "mean sparsity"});
    auto eval = [&](const Model& model, const std::string& model_name,
                    bool wachter) {
      Rng rng(162);
      size_t valid = 0, tried = 0;
      double dist = 0.0, sparsity = 0.0;
      for (size_t i = 0; i < data.size() && tried < 50; ++i) {
        const Vector x = data.instance(i);
        if (model.Predict(x) != 0) continue;
        ++tried;
        CounterfactualResult r;
        if (wachter) {
          r = WachterCounterfactual(lr, data.schema(), x, {});
        } else {
          r = GrowingSpheresCounterfactual(model, data.schema(), x, {},
                                           &rng);
        }
        if (!r.valid) continue;
        ++valid;
        dist += r.distance;
        sparsity += static_cast<double>(r.sparsity);
      }
      t.AddRow({model_name, wachter ? "Wachter (gradient)"
                                    : "growing spheres (black-box)",
                FormatDouble(static_cast<double>(valid) / tried),
                FormatDouble(valid ? dist / valid : 0.0),
                FormatDouble(valid ? sparsity / valid : 0.0, 1)});
    };
    eval(lr, "logistic", true);
    eval(lr, "logistic", false);
    eval(forest, "forest", false);
    eval(gbm, "gbm", false);
    std::printf("\n=== A10a: counterfactual generators ===\nExpected "
                "shape: gradient access buys shorter, sparser CFs on the "
                "linear model; growing spheres still achieves high "
                "validity on the black-box forest.\n%s\n",
                t.ToString().c_str());
  }

  // a2. Growing-spheres configuration ablation on the forest.
  {
    AsciiTable t({"samples/sphere", "radius growth", "validity",
                  "mean dist", "mean iterations"});
    for (size_t samples : {10, 40, 160}) {
      for (double growth : {1.1, 1.3, 1.8}) {
        Rng rng(190);
        CounterfactualConfig cfg;
        cfg.samples_per_sphere = samples;
        cfg.radius_growth = growth;
        size_t valid = 0, tried = 0;
        double dist = 0.0, iters = 0.0;
        for (size_t i = 0; i < data.size() && tried < 40; ++i) {
          const Vector x = data.instance(i);
          if (forest.Predict(x) != 0) continue;
          ++tried;
          auto r = GrowingSpheresCounterfactual(forest, data.schema(), x,
                                                cfg, &rng);
          if (!r.valid) continue;
          ++valid;
          dist += r.distance;
          iters += static_cast<double>(r.iterations);
        }
        t.AddRow({std::to_string(samples), FormatDouble(growth, 1),
                  FormatDouble(static_cast<double>(valid) / tried),
                  FormatDouble(valid ? dist / valid : 0.0),
                  FormatDouble(valid ? iters / valid : 0.0, 1)});
      }
    }
    std::printf("=== A10a2: growing-spheres ablation ===\nExpected "
                "shape: more samples per sphere buy shorter CFs; faster "
                "radius growth converges in fewer iterations at a "
                "distance cost.\n%s\n",
                t.ToString().c_str());
  }

  // b. SHAP budget sweep.
  {
    Rng rng(163);
    Dataset background =
        data.Subset(rng.SampleWithoutReplacement(data.size(), 15));
    const Vector x = data.instance(3);
    // Exact values via the same value function.
    CoalitionValue value = [&](const std::vector<bool>& mask) {
      double acc = 0.0;
      for (size_t b = 0; b < background.size(); ++b) {
        Vector z = background.instance(b);
        for (size_t c = 0; c < x.size(); ++c)
          if (mask[c]) z[c] = x[c];
        acc += lr.PredictProba(z);
      }
      return acc / static_cast<double>(background.size());
    };
    const Vector exact = ExactShapley(value, data.num_features());
    AsciiTable t({"permutations", "max |error|",
                  "value evals (approx)"});
    for (size_t perms : {4, 16, 64, 256}) {
      Rng srng(164);
      const Vector sampled =
          SampledShapley(value, data.num_features(), perms, &srng);
      double err = 0.0;
      for (size_t c = 0; c < exact.size(); ++c)
        err = std::max(err, std::fabs(sampled[c] - exact[c]));
      t.AddRow({std::to_string(perms), FormatDouble(err, 4),
                std::to_string(perms * (data.num_features() + 1))});
    }
    std::printf("=== A10b: SHAP sampling budget ===\nExpected shape: "
                "error falls ~1/sqrt(budget); exact costs 2^d = %zu "
                "evals.\n%s\n",
                size_t{1} << data.num_features(), t.ToString().c_str());
  }

  // c. Surrogate fidelity vs black-box.
  {
    AsciiTable t({"black box", "local surrogate R^2",
                  "global surrogate fidelity"});
    Rng rng(165);
    const Vector x = data.instance(5);
    auto local_lr = FitLocalSurrogate(lr, data, x, &rng);
    auto local_rf = FitLocalSurrogate(forest, data, x, &rng);
    auto local_gbm = FitLocalSurrogate(gbm, data, x, &rng);
    auto global_lr = FitGlobalSurrogate(lr, data, 4);
    auto global_rf = FitGlobalSurrogate(forest, data, 4);
    auto global_gbm = FitGlobalSurrogate(gbm, data, 4);
    t.AddRow({"logistic", FormatDouble(local_lr.fidelity),
              FormatDouble(global_lr.fidelity)});
    t.AddRow({"forest", FormatDouble(local_rf.fidelity),
              FormatDouble(global_rf.fidelity)});
    t.AddRow({"gbm", FormatDouble(local_gbm.fidelity),
              FormatDouble(global_gbm.fidelity)});
    std::printf("=== A10c: surrogate fidelity ===\nExpected shape: both "
                "fidelities drop when the black box gets less smooth "
                "(forest vs logistic).\n%s\n",
                t.ToString().c_str());
  }
}

void BM_WachterCf(benchmark::State& state) {
  PrintOnce();
  Dataset data = CreditGen().Generate(400, 166);
  LogisticRegression lr;
  XFAIR_CHECK(lr.Fit(data).ok());
  const Vector x = data.instance(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        WachterCounterfactual(lr, data.schema(), x, {}));
  }
}
BENCHMARK(BM_WachterCf)->Unit(benchmark::kMicrosecond);

void BM_GrowingSpheresCf(benchmark::State& state) {
  PrintOnce();
  Dataset data = CreditGen().Generate(400, 167);
  RandomForest forest;
  RandomForestOptions fo;
  fo.num_trees = 15;
  XFAIR_CHECK(forest.Fit(data, fo).ok());
  size_t neg = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (forest.Predict(data.instance(i)) == 0) {
      neg = i;
      break;
    }
  }
  const Vector x = data.instance(neg);
  Rng rng(168);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GrowingSpheresCounterfactual(forest, data.schema(), x, {}, &rng));
  }
}
BENCHMARK(BM_GrowingSpheresCf)->Unit(benchmark::kMicrosecond);

void BM_ExactShapley(benchmark::State& state) {
  PrintOnce();
  const size_t d = static_cast<size_t>(state.range(0));
  Rng table_rng(169);
  Vector game(size_t{1} << d);
  for (double& v : game) v = table_rng.Uniform(-1, 1);
  CoalitionValue value = [&](const std::vector<bool>& mask) {
    size_t s = 0;
    for (size_t i = 0; i < mask.size(); ++i)
      if (mask[i]) s |= (size_t{1} << i);
    return game[s];
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactShapley(value, d));
  }
  state.SetLabel("d=" + std::to_string(d));
}
BENCHMARK(BM_ExactShapley)->Arg(8)->Arg(12)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_SampledShapley(benchmark::State& state) {
  PrintOnce();
  const size_t d = 16;
  Rng table_rng(170);
  Vector weights(d);
  for (double& w : weights) w = table_rng.Uniform(-1, 1);
  CoalitionValue value = [&](const std::vector<bool>& mask) {
    double acc = 0.0;
    for (size_t i = 0; i < d; ++i)
      if (mask[i]) acc += weights[i];
    return acc;
  };
  Rng rng(171);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampledShapley(
        value, d, static_cast<size_t>(state.range(0)), &rng));
  }
  state.SetLabel("perms=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_SampledShapley)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xfair
