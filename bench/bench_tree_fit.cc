// Presorted split finding (DESIGN.md §5.4): GradientBoostedTrees::Fit,
// which sorts each feature once per fit, against the sort-per-node oracle
// (tests/oracles/), which re-sorts every feature at every node of every
// round. Both build bit-identical trees; the bench checks that, prints the
// fit times, and writes BENCH_tree_fit.json (baseline = oracle, optimized
// = the library fit) on the perfbench audit's 6k-row CreditGen shape.

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdio>

#include "bench/bench_json.h"
#include "src/data/generators.h"
#include "src/model/gbm.h"
#include "src/util/table.h"
#include "tests/oracles/tree_fit_oracle.h"

namespace xfair {
namespace {

Dataset AuditRows(size_t n) {
  BiasConfig cfg;
  cfg.score_shift = 1.0;
  return CreditGen(cfg).Generate(n, 1);
}

bool SameTrees(const GradientBoostedTrees& gbm, const oracles::GbmFit& want) {
  const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
  if (bits(gbm.bias()) != bits(want.bias) ||
      gbm.trees().size() != want.trees.size())
    return false;
  for (size_t t = 0; t < want.trees.size(); ++t) {
    const auto& a = gbm.trees()[t];
    const auto& b = want.trees[t];
    if (a.size() != b.size()) return false;
    for (size_t k = 0; k < a.size(); ++k) {
      if (a[k].feature != b[k].feature || a[k].left != b[k].left ||
          a[k].right != b[k].right ||
          bits(a[k].threshold) != bits(b[k].threshold) ||
          bits(a[k].value) != bits(b[k].value) ||
          bits(a[k].cover) != bits(b[k].cover))
        return false;
    }
  }
  return true;
}

void PrintOnce() {
  static bool printed = false;
  if (printed) return;
  printed = true;

  const Dataset data = AuditRows(6000);
  GradientBoostedTrees gbm;
  XFAIR_CHECK(gbm.Fit(data).ok());
  const oracles::GbmFit oracle = oracles::FitGbmSortPerNode(data);
  const bool same = SameTrees(gbm, oracle);
  XFAIR_CHECK_MSG(same, "presorted GBM differs from the sort-per-node fit");
  size_t nodes = 0;
  for (const auto& tree : gbm.trees()) nodes += tree.size();
  AsciiTable t({"rows", "rounds", "nodes", "identical trees"});
  t.AddRow({std::to_string(data.size()), std::to_string(gbm.num_trees()),
            std::to_string(nodes), same ? "yes" : "no"});
  std::printf("\n=== GBM fit: presorted vs sort-per-node ===\n%s\n",
              t.ToString().c_str());

  RecordAlgoSpeedup(
      "tree_fit",
      [&] { benchmark::DoNotOptimize(oracles::FitGbmSortPerNode(data)); },
      [&] {
        GradientBoostedTrees fit;
        XFAIR_CHECK(fit.Fit(data).ok());
        benchmark::DoNotOptimize(fit);
      });
}

void BM_GbmFit(benchmark::State& state) {
  PrintOnce();
  const Dataset data = AuditRows(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    GradientBoostedTrees gbm;
    XFAIR_CHECK(gbm.Fit(data).ok());
    benchmark::DoNotOptimize(gbm);
  }
  state.SetLabel("n=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_GbmFit)->Arg(1500)->Arg(6000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xfair
