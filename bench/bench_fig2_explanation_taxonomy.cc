// Experiment F2 — regenerates Figure 2 ("Taxonomy of Explanation
// Approaches") as an executable artifact: one representative
// implementation per taxonomy leaf is run on the credit fixture and
// reported with its access tier, coverage, a quality measure
// (fidelity/validity where defined), and wall time.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/core/registry.h"
#include "src/explain/counterfactual.h"
#include "src/model/metrics.h"
#include "src/explain/importance.h"
#include "src/explain/influence.h"
#include "src/explain/prototypes.h"
#include "src/explain/rules.h"
#include "src/explain/shap.h"
#include "src/explain/surrogate.h"
#include "src/model/decision_tree.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace xfair {
namespace {

const RunContext& Ctx() {
  static const RunContext* ctx = new RunContext(RunContext::Make(42));
  return *ctx;
}

std::string F(double v) { return FormatDouble(v, 3); }

/// Runs `body` and returns (label, quality, milliseconds).
template <typename Fn>
std::vector<std::string> Timed(const std::string& branch,
                               const std::string& leaf,
                               const std::string& access,
                               const std::string& coverage, Fn&& body) {
  const auto start = std::chrono::steady_clock::now();
  const std::string quality = body();
  const auto end = std::chrono::steady_clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  return {branch, leaf, access, coverage, quality, FormatDouble(ms, 2)};
}

void PrintOnce() {
  static bool printed = false;
  if (printed) return;
  printed = true;
  const RunContext& ctx = Ctx();
  const Dataset& data = ctx.credit;
  const LogisticRegression& model = ctx.credit_model;

  // Explainee: first negatively-predicted instance.
  size_t neg = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if (model.Predict(data.instance(i)) == 0) {
      neg = i;
      break;
    }
  }
  const Vector x = data.instance(neg);

  AsciiTable t({"Branch", "Leaf", "Access", "Coverage", "Quality",
                "Time (ms)"});

  t.AddRow(Timed("Intrinsic", "interpretable tree", "W", "G", [&] {
    DecisionTree tree;
    DecisionTreeOptions opts;
    opts.max_depth = 3;
    XFAIR_CHECK(tree.Fit(data, opts).ok());
    return "accuracy=" + F(Accuracy(tree, data)) + ", " +
           std::to_string(RulesFromTree(tree).size()) + " rules";
  }));

  t.AddRow(Timed("Pre/data-based", "feature-group correlation scan", "-",
                 "G", [&] {
    // Which feature correlates most with group membership (proxy scan)?
    Vector groups(data.size());
    for (size_t i = 0; i < data.size(); ++i) groups[i] = data.group(i);
    double best = 0.0;
    size_t best_c = 0;
    for (size_t c = 1; c < data.num_features(); ++c) {
      const double r =
          std::fabs(PearsonCorrelation(data.x().Col(c), groups));
      if (r > best) {
        best = r;
        best_c = c;
      }
    }
    return "strongest proxy '" + data.schema().feature(best_c).name +
           "' |r|=" + F(best);
  }));

  t.AddRow(Timed("Post-hoc/example", "counterfactual (Wachter)", "G", "L",
                 [&] {
    auto r = WachterCounterfactual(model, data.schema(), x, {});
    return std::string("valid=") + (r.valid ? "yes" : "no") +
           ", dist=" + F(r.distance) +
           ", sparsity=" + std::to_string(r.sparsity);
  }));

  t.AddRow(Timed("Post-hoc/example", "counterfactual (growing spheres)",
                 "B", "L", [&] {
    Rng rng(1);
    auto r = GrowingSpheresCounterfactual(model, data.schema(), x, {},
                                          &rng);
    return std::string("valid=") + (r.valid ? "yes" : "no") +
           ", dist=" + F(r.distance) +
           ", sparsity=" + std::to_string(r.sparsity);
  }));

  t.AddRow(Timed("Post-hoc/example", "prototypes (k-medoids)", "B", "G",
                 [&] {
    Rng rng(2);
    auto protos = ClassPrototypes(data, 1, 3, &rng);
    return std::to_string(protos.size()) + " prototypes of class 1";
  }));

  t.AddRow(Timed("Post-hoc/example", "nearest neighbors", "B", "L", [&] {
    auto ne = ExplainByNeighbors(data, x, 0);
    return "contrast at distance " + F(ne.other_label_distance);
  }));

  t.AddRow(Timed("Post-hoc/example", "influence functions", "W", "L", [&] {
    auto analyzer = InfluenceAnalyzer::Create(model, data);
    XFAIR_CHECK(analyzer.ok());
    double max_infl = 0.0;
    for (size_t i = 0; i < 100; ++i) {
      max_infl = std::max(
          max_infl, std::fabs(analyzer->InfluenceOnPrediction(x, i)));
    }
    return "max |influence| over 100 train pts=" + F(max_infl);
  }));

  t.AddRow(Timed("Post-hoc/feature", "SHAP (instance)", "B", "L", [&] {
    Rng rng(3);
    Dataset background = data.Subset(rng.SampleWithoutReplacement(
        data.size(), 20));
    Vector phi = ShapExplainInstance(model, background, x, 100, &rng);
    double sum = 0.0;
    for (double p : phi) sum += p;
    return "sum(phi)=" + F(sum) + " (efficiency)";
  }));

  t.AddRow(Timed("Post-hoc/feature", "permutation importance", "B", "G",
                 [&] {
    Rng rng(4);
    Vector imp = PermutationImportance(model, data, 2, &rng);
    size_t top = 0;
    for (size_t c = 1; c < imp.size(); ++c)
      if (imp[c] > imp[top]) top = c;
    return "top feature '" + data.schema().feature(top).name + "'";
  }));

  t.AddRow(Timed("Post-hoc/feature", "partial dependence", "B", "G", [&] {
    auto pd = ComputePartialDependence(model, data, 2, 12);
    return "PDP(income) spans " +
           F(pd.mean_predictions.back() - pd.mean_predictions.front());
  }));

  t.AddRow(Timed("Post-hoc/approximation", "local surrogate (LIME)", "B",
                 "L", [&] {
    Rng rng(5);
    auto s = FitLocalSurrogate(model, data, x, &rng);
    return "fidelity R^2=" + F(s.fidelity);
  }));

  t.AddRow(Timed("Post-hoc/approximation", "global surrogate tree", "B",
                 "G", [&] {
    auto s = FitGlobalSurrogate(model, data, 4);
    return "fidelity=" + F(s.fidelity);
  }));

  t.AddRow(Timed("Post-hoc/approximation", "rule extraction", "B", "G",
                 [&] {
    auto s = FitGlobalSurrogate(model, data, 3);
    auto rules = RulesFromTree(s.tree);
    return std::to_string(rules.size()) + " rules, e.g. '" +
           rules[0].ToString(data.schema()) + "'";
  }));

  std::printf("\n=== Figure 2: explanation taxonomy, executed ===\n%s\n",
              t.ToString().c_str());
}

void BM_Fig2Wachter(benchmark::State& state) {
  PrintOnce();
  const RunContext& ctx = Ctx();
  const Vector x = ctx.credit.instance(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(WachterCounterfactual(
        ctx.credit_model, ctx.credit.schema(), x, {}));
  }
}
BENCHMARK(BM_Fig2Wachter)->Unit(benchmark::kMicrosecond);

void BM_Fig2GrowingSpheres(benchmark::State& state) {
  PrintOnce();
  const RunContext& ctx = Ctx();
  const Vector x = ctx.credit.instance(0);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GrowingSpheresCounterfactual(
        ctx.credit_model, ctx.credit.schema(), x, {}, &rng));
  }
}
BENCHMARK(BM_Fig2GrowingSpheres)->Unit(benchmark::kMicrosecond);

void BM_Fig2ShapInstance(benchmark::State& state) {
  PrintOnce();
  const RunContext& ctx = Ctx();
  Rng rng(8);
  Dataset background = ctx.credit.Subset(
      rng.SampleWithoutReplacement(ctx.credit.size(), 15));
  const Vector x = ctx.credit.instance(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ShapExplainInstance(
        ctx.credit_model, background, x, 60, &rng));
  }
}
BENCHMARK(BM_Fig2ShapInstance)->Unit(benchmark::kMillisecond);

void BM_Fig2LocalSurrogate(benchmark::State& state) {
  PrintOnce();
  const RunContext& ctx = Ctx();
  Rng rng(9);
  const Vector x = ctx.credit.instance(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        FitLocalSurrogate(ctx.credit_model, ctx.credit, x, &rng));
  }
}
BENCHMARK(BM_Fig2LocalSurrogate)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xfair
