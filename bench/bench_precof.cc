// Experiment A2 (paper §IV-A, PreCoF [71]): explicit vs implicit bias.
// With the sensitive attribute available and a direct penalty on it, the
// counterfactuals of protected negatives flip the sensitive attribute
// (explicit bias). With the sensitive attribute removed from training, the
// change frequencies migrate onto proxy features, and the migration grows
// with the planted proxy strength (implicit bias).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "src/data/generators.h"
#include "src/model/logistic_regression.h"
#include "src/unfair/precof.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace xfair {
namespace {

void PrintOnce() {
  static bool printed = false;
  if (printed) return;
  printed = true;

  // Explicit-bias probe: model with a direct sensitive-attribute penalty.
  {
    Dataset data = CreditGen().Generate(700, 81);
    LogisticRegression direct;
    Vector w(data.num_features(), 0.0);
    w[0] = -6.0;
    w[2] = 0.25;
    direct.SetParameters(w, 0.0);
    Rng rng(82);
    auto report = PrecofExplicitBias(direct, data, &rng);
    AsciiTable t({"feature", "CF change freq G+", "CF change freq G-"});
    for (size_t c = 0; c < report.feature_names.size(); ++c) {
      t.AddRow({report.feature_names[c],
                FormatDouble(report.change_freq_protected[c]),
                FormatDouble(report.change_freq_non_protected[c])});
    }
    std::printf("\n=== A2a: PreCoF explicit bias (model penalizes "
                "'protected' directly) ===\nExpected shape: 'protected' "
                "changes in nearly all G+ counterfactuals, almost never "
                "in G-.\n%s\n",
                t.ToString().c_str());
  }

  // Implicit-bias probe: sweep proxy strength. One search draw at n=900
  // is mostly noise, so each strength runs kSeeds Rng seeds on the same
  // data and reports the spread.
  {
    constexpr size_t kSeeds = 20;
    AsciiTable t({"proxy strength", "top gap mean", "top gap sd",
                  "zip_risk gap mean", "zip_risk gap sd", "zip_risk first"});
    for (double proxy : {0.0, 0.45, 0.9}) {
      BiasConfig cfg;
      cfg.proxy_strength = proxy;
      cfg.score_shift = 0.8;
      Dataset data = CreditGen(cfg).Generate(900, 83);
      Vector top_gap(kSeeds), zip_gap(kSeeds);
      size_t zip_first = 0;
      for (size_t s = 0; s < kSeeds; ++s) {
        Rng rng(84 + s);
        auto report = PrecofImplicitBias(data, &rng);
        const size_t top = report.ranked_features[0];
        // zip_risk is index 6 after the sensitive column is dropped.
        top_gap[s] = report.frequency_gap[top];
        zip_gap[s] = report.frequency_gap[6];
        zip_first += top == 6 ? 1 : 0;
      }
      t.AddRow({FormatDouble(proxy, 2), FormatDouble(Mean(top_gap)),
                FormatDouble(Stddev(top_gap)), FormatDouble(Mean(zip_gap)),
                FormatDouble(Stddev(zip_gap)),
                std::to_string(zip_first) + "/" + std::to_string(kSeeds)});
    }
    std::printf("=== A2b: PreCoF implicit bias vs proxy strength (%zu seeds) "
                "===\nExpected shape: with no proxy the gaps are small; "
                "strong proxies create group-specific recourse routes.\n"
                "%s\n",
                kSeeds, t.ToString().c_str());
  }
}

void BM_PrecofExplicit(benchmark::State& state) {
  PrintOnce();
  Dataset data = CreditGen().Generate(500, 85);
  LogisticRegression direct;
  Vector w(data.num_features(), 0.0);
  w[0] = -6.0;
  w[2] = 0.25;
  direct.SetParameters(w, 0.0);
  Rng rng(86);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrecofExplicitBias(direct, data, &rng));
  }
}
BENCHMARK(BM_PrecofExplicit)->Unit(benchmark::kMillisecond);

void BM_PrecofImplicit(benchmark::State& state) {
  PrintOnce();
  BiasConfig cfg;
  cfg.proxy_strength = 0.9;
  Dataset data = CreditGen(cfg).Generate(500, 87);
  Rng rng(88);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrecofImplicitBias(data, &rng));
  }
}
BENCHMARK(BM_PrecofImplicit)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xfair
