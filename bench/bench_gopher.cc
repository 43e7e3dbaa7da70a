// Experiment A6 (paper §IV-B, Gopher [63],[83]): data-based explanations
// of unfairness. Prints the top patterns with influence-estimated and
// retraining-verified parity-gap changes, and sweeps the planted bias to
// show pattern interestingness tracks it.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_json.h"
#include "src/data/generators.h"
#include "src/unfair/gopher.h"
#include "src/util/table.h"
#include "tests/oracles/subgroup_oracle.h"

namespace xfair {
namespace {

void PrintOnce() {
  static bool printed = false;
  if (printed) return;
  printed = true;

  {
    BiasConfig cfg;
    cfg.score_shift = 1.0;
    cfg.label_bias = 0.1;
    Dataset data = CreditGen(cfg).Generate(800, 121);
    LogisticRegression model;
    XFAIR_CHECK(model.Fit(data).ok());
    GopherOptions opts;
    opts.top_k = 5;
    auto report = ExplainUnfairnessByPatterns(model, data, opts);
    XFAIR_CHECK(report.ok());
    AsciiTable t({"pattern", "support", "est dGap (influence)",
                  "verified dGap (retrain)", "interestingness"});
    for (const auto& p : report->patterns) {
      t.AddRow({p.description, std::to_string(p.support),
                FormatDouble(p.estimated_gap_change, 4),
                p.verified ? FormatDouble(p.verified_gap_change, 4) : "-",
                FormatDouble(p.interestingness, 5)});
    }
    std::printf("\n=== A6: Gopher top patterns (original parity gap "
                "%.3f, %zu patterns examined) ===\nExpected shape: "
                "estimated and verified changes agree in sign; removing "
                "top patterns reduces the gap.\n%s\n",
                report->original_gap, report->patterns_examined,
                t.ToString().c_str());
  }

  {
    AsciiTable t({"planted shift", "original gap",
                  "best verified reduction"});
    for (double shift : {0.4, 0.8, 1.2}) {
      BiasConfig cfg;
      cfg.score_shift = shift;
      Dataset data = CreditGen(cfg).Generate(700, 122);
      LogisticRegression model;
      XFAIR_CHECK(model.Fit(data).ok());
      GopherOptions opts;
      opts.top_k = 3;
      auto report = ExplainUnfairnessByPatterns(model, data, opts);
      XFAIR_CHECK(report.ok());
      double best = 0.0;
      for (const auto& p : report->patterns) {
        if (p.verified) best = std::min(best, p.verified_gap_change);
      }
      t.AddRow({FormatDouble(shift, 1),
                FormatDouble(report->original_gap),
                FormatDouble(best, 4)});
    }
    std::printf("=== A6b: Gopher vs planted bias ===\nExpected shape: "
                "larger planted gaps leave more room for data-removal "
                "repairs.\n%s\n",
                t.ToString().c_str());
  }

  // Depth-3 intersectional workload: the vertical-bitset lattice engine
  // vs the looped per-candidate oracle (tests/oracles/; identical
  // candidates, 0-ulp identical estimates), written to BENCH_gopher.json
  // with a candidates_per_sec throughput figure. Estimate-only so the
  // search dominates the measurement instead of retraining.
  {
    BiasConfig cfg;
    cfg.score_shift = 1.0;
    Dataset data = CreditGen(cfg).Generate(8000, 125);
    LogisticRegression model;
    XFAIR_CHECK(model.Fit(data).ok());
    GopherOptions engine;
    engine.top_k = 0;  // No retraining, and top_k = 0 disables pruning —
    engine.bins = 5;   // both paths score every lattice candidate.
    engine.max_conditions = 3;
    engine.min_support = 0.01;
    const auto probe = ExplainUnfairnessByPatterns(model, data, engine);
    XFAIR_CHECK(probe.ok());
    const size_t candidates = probe->candidates_scored;
    const auto run_engine = [&] {
      benchmark::DoNotOptimize(
          ExplainUnfairnessByPatterns(model, data, engine));
    };
    const auto run_oracle = [&] {
      benchmark::DoNotOptimize(
          oracles::ExplainUnfairnessByPatternsLooped(model, data, engine));
    };
    const obs::Json extra =
        MeasureThroughputExtra("candidates", candidates, run_engine,
                               run_oracle);
    RecordAlgoSpeedup("gopher", run_oracle, run_engine, 3, extra);
  }
}

void BM_GopherEstimateOnly(benchmark::State& state) {
  PrintOnce();
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data =
      CreditGen(cfg).Generate(static_cast<size_t>(state.range(0)), 123);
  LogisticRegression model;
  XFAIR_CHECK(model.Fit(data).ok());
  GopherOptions opts;
  opts.top_k = 0;  // Influence scoring only; no retraining.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExplainUnfairnessByPatterns(model, data, opts));
  }
  state.SetLabel("n=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_GopherEstimateOnly)->Arg(300)->Arg(800)
    ->Unit(benchmark::kMillisecond);

void BM_GopherWithVerification(benchmark::State& state) {
  PrintOnce();
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  Dataset data = CreditGen(cfg).Generate(500, 124);
  LogisticRegression model;
  XFAIR_CHECK(model.Fit(data).ok());
  GopherOptions opts;
  opts.top_k = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ExplainUnfairnessByPatterns(model, data, opts));
  }
}
BENCHMARK(BM_GopherWithVerification)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xfair
