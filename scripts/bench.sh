#!/usr/bin/env bash
# Regenerates the BENCH_*.json speedup artifacts in the repo root.
#
# Builds the kernel-layer benches in a Release tree (the bench CMake
# guard warns on anything else) and runs each from the repo root so the
# JSON files land next to README.md. XFAIR_BENCH_THREADS controls the
# worker count of the thread-scaling measurement (default 4).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES=(bench_kernels bench_fairness_shap bench_gopher bench_tree_fit)

echo "== configure + build (Release) =="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build-release -j "$(nproc)" --target "${BENCHES[@]}"

for b in "${BENCHES[@]}"; do
  echo
  echo "== $b =="
  # Tiny min_time: the JSON artifacts are produced by the RecordAlgoSpeedup
  # harness (best-of-3 wall times), not by the google-benchmark loops.
  "./build-release/bench/$b" --benchmark_min_time=0.01
done

echo
echo "bench: wrote $(ls BENCH_*.json | tr '\n' ' ')"
