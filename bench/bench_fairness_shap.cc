// Experiment A5 (paper §IV-B, fairness Shapley [81] and causal-path
// decomposition [82]):
//  a. Feature-level decomposition of the parity gap: the sensitive column
//     dominates for a directly-discriminating model; proxies take over
//     when the sensitive column is dropped.
//  b. Sampled-Shapley convergence to exact values.
//  c. Feature vs path attribution under a proxy chain: the feature view
//     lumps everything on the terminal features; the path view separates
//     S -> income from S -> income -> savings.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench/bench_json.h"
#include "src/causal/worlds.h"
#include "src/data/generators.h"
#include "src/explain/shap.h"
#include "src/explain/tree_shap.h"
#include "src/model/decision_tree.h"
#include "src/model/logistic_regression.h"
#include "src/unfair/causal_path.h"
#include "src/unfair/fairness_shap.h"
#include "src/util/table.h"
#include "tests/oracles/tree_shap_oracle.h"

namespace xfair {
namespace {

void PrintOnce() {
  static bool printed = false;
  if (printed) return;
  printed = true;

  // a. Feature-level fairness Shapley, with and without the sensitive
  // column available to the model.
  {
    BiasConfig cfg;
    cfg.score_shift = 1.0;
    cfg.proxy_strength = 0.8;
    Dataset data = CreditGen(cfg).Generate(900, 111);
    LogisticRegression with_s;
    XFAIR_CHECK(with_s.Fit(data).ok());
    auto direct = ExplainParityWithShapley(with_s, data, {});

    Dataset blind = data.WithoutFeature(0);
    LogisticRegression without_s;
    XFAIR_CHECK(without_s.Fit(blind).ok());
    auto proxy = ExplainParityWithShapley(without_s, blind, {});

    AsciiTable t({"setting", "parity gap", "top contributor", "phi(top)",
                  "phi(zip_risk)"});
    auto zip_direct = data.schema().IndexOf("zip_risk");
    t.AddRow({"model sees 'protected'", FormatDouble(direct.full_gap),
              direct.feature_names[direct.ranked_features[0]],
              FormatDouble(direct.contributions[direct.ranked_features[0]]),
              FormatDouble(direct.contributions[*zip_direct])});
    auto zip_blind = blind.schema().IndexOf("zip_risk");
    t.AddRow({"'protected' dropped", FormatDouble(proxy.full_gap),
              proxy.feature_names[proxy.ranked_features[0]],
              FormatDouble(proxy.contributions[proxy.ranked_features[0]]),
              FormatDouble(proxy.contributions[*zip_blind])});
    std::printf("\n=== A5a: fairness Shapley [81] — direct vs proxy "
                "discrimination ===\nExpected shape: with the sensitive "
                "column present it carries a dominant share; once "
                "dropped, the residual gap is attributed to proxies "
                "(zip_risk and depressed qualifications).\n%s\n",
                t.ToString().c_str());
  }

  // b. Sampled convergence on a fixed random game.
  {
    Rng table_rng(112);
    Vector game(1u << 8);
    for (double& v : game) v = table_rng.Uniform(-1, 1);
    CoalitionValue value = [&](const std::vector<bool>& mask) {
      size_t s = 0;
      for (size_t i = 0; i < mask.size(); ++i)
        if (mask[i]) s |= (1u << i);
      return game[s];
    };
    const Vector exact = ExactShapley(value, 8);
    AsciiTable t({"permutations", "max |error| vs exact"});
    for (size_t perms : {10, 40, 160, 640}) {
      Rng rng(113);
      const Vector sampled = SampledShapley(value, 8, perms, &rng);
      double err = 0.0;
      for (size_t i = 0; i < 8; ++i)
        err = std::max(err, std::fabs(sampled[i] - exact[i]));
      t.AddRow({std::to_string(perms), FormatDouble(err, 4)});
    }
    std::printf("=== A5b: sampled Shapley convergence ===\nExpected "
                "shape: error decreasing roughly as 1/sqrt("
                "permutations).\n%s\n",
                t.ToString().c_str());
  }

  // c. Path vs feature attribution in the causal world.
  {
    CausalWorld world = MakeCreditWorld(1.0);
    LogisticRegression model;
    model.SetParameters({0.0, 0.4, 0.35, -0.3, 0.2}, -2.5);
    auto report = DecomposeDisparityByPaths(model, world, 4000, 114);
    AsciiTable t({"causal path", "transmitted shift",
                  "disparity contribution"});
    for (const auto& p : report.paths) {
      t.AddRow({p.description, FormatDouble(p.transmitted_shift),
                FormatDouble(p.score_contribution)});
    }
    t.AddRow({"(sum of paths)", "-",
              FormatDouble(report.explained_disparity)});
    t.AddRow({"(actual disparity)", "-",
              FormatDouble(report.total_disparity)});
    std::printf("=== A5c: causal-path decomposition [82] ===\nExpected "
                "shape: the S->income and S->income->savings paths carry "
                "most of the disparity; the sum of path contributions "
                "approximates the actual total.\n%s\n",
                t.ToString().c_str());
  }

  // Generic coalition enumeration vs the interventional-TreeSHAP fast
  // path on a tree model (same game, same attributions), plus the
  // slice-scale audit throughput of the batched thresholded sweep
  // (DESIGN §10) vs its looped per-row reference, all written to
  // BENCH_fairness_shap.json.
  {
    BiasConfig cfg;
    cfg.score_shift = 1.0;
    Dataset data = CreditGen(cfg).Generate(900, 118);
    DecisionTree model;
    XFAIR_CHECK(model.Fit(data).ok());
    // Behind the black-box wrapper the tree takes the generic engine.
    const oracles::BlackBoxModel generic(model);

    // Audit throughput: the batched thresholded sweep vs its looped
    // per-row reference on the credit audit slice — the engine inner
    // loop FairnessShapBatch dispatches on. The game is exactly the
    // slice's parity-gap decomposition: column-mean background and
    // +-1/count[g] per-row weights. The engine-independent endpoint-gap
    // evaluations are excluded so the field tracks the sweep itself;
    // both engines are bit-identical by construction.
    constexpr size_t kAuditRows = 8192;
    Dataset audit = CreditGen(cfg).Generate(kAuditRows, 119);
    DecisionTree audit_model;
    XFAIR_CHECK(audit_model.Fit(audit).ok());
    const size_t ad = audit.num_features();
    std::vector<size_t> slice(audit.size());
    for (size_t i = 0; i < slice.size(); ++i) slice[i] = i;
    Vector background(ad, 0.0);
    for (size_t i = 0; i < audit.size(); ++i)
      for (size_t c = 0; c < ad; ++c) background[c] += audit.x().At(i, c);
    for (size_t c = 0; c < ad; ++c)
      background[c] /= static_cast<double>(audit.size());
    size_t count[2] = {0, 0};
    for (size_t i = 0; i < audit.size(); ++i) ++count[audit.group(i)];
    Vector weights(audit.size());
    for (size_t i = 0; i < audit.size(); ++i) {
      weights[i] = audit.group(i) == 0
                       ? 1.0 / static_cast<double>(count[0])
                       : -1.0 / static_cast<double>(count[1]);
    }
    const double tau = audit_model.threshold();
    const obs::Json extra = MeasureThroughputExtra(
        "audit_rows", kAuditRows,
        [&] {
          benchmark::DoNotOptimize(InterventionalTreeShapThresholded(
              audit_model, audit.x(), slice, weights, background, tau));
        },
        [&] {
          benchmark::DoNotOptimize(
              oracles::InterventionalTreeShapThresholdedLooped(
                  audit_model, audit.x(), slice, weights, background, tau));
        },
        /*repeats=*/7);

    RecordAlgoSpeedup(
        "fairness_shap",
        [&] {
          benchmark::DoNotOptimize(
              ExplainParityWithShapley(generic, data, {}));
        },
        [&] {
          benchmark::DoNotOptimize(ExplainParityWithShapley(model, data, {}));
        },
        /*repeats=*/3, extra);
  }
}

void BM_FairnessShapMask(benchmark::State& state) {
  PrintOnce();
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data =
      CreditGen(cfg).Generate(static_cast<size_t>(state.range(0)), 115);
  LogisticRegression model;
  XFAIR_CHECK(model.Fit(data).ok());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExplainParityWithShapley(model, data, {}));
  }
  state.SetLabel("n=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_FairnessShapMask)->Arg(300)->Arg(900)
    ->Unit(benchmark::kMillisecond);

void BM_FairnessShapRetrain(benchmark::State& state) {
  PrintOnce();
  Dataset full = CreditGen().Generate(250, 116);
  // Narrow to 4 features so the 2^d retrains stay tractable.
  Dataset data = full;
  for (int c = static_cast<int>(full.num_features()) - 1; c >= 0; --c) {
    if (c == 0 || c == 2 || c == 3 || c == 7) continue;
    data = data.WithoutFeature(static_cast<size_t>(c));
  }
  LogisticRegression model;
  XFAIR_CHECK(model.Fit(data).ok());
  FairnessShapOptions opts;
  opts.mode = FairnessShapMode::kRetrain;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExplainParityWithShapley(model, data, opts));
  }
}
BENCHMARK(BM_FairnessShapRetrain)->Unit(benchmark::kMillisecond);

void BM_CausalPathDecomposition(benchmark::State& state) {
  PrintOnce();
  CausalWorld world = MakeCreditWorld(1.0);
  LogisticRegression model;
  model.SetParameters({0.0, 0.4, 0.35, -0.3, 0.2}, -2.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecomposeDisparityByPaths(
        model, world, static_cast<size_t>(state.range(0)), 117));
  }
  state.SetLabel("samples=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CausalPathDecomposition)->Arg(1000)->Arg(4000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xfair
