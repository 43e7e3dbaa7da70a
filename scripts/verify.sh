#!/usr/bin/env bash
# Full verification: tier-1 build + tests, the same suite with the pool
# forced to 4 workers, the parallel runtime under ThreadSanitizer, the
# full suite under Address+UndefinedBehaviorSanitizer (which arm
# XFAIR_DCHECK, restoring per-element Matrix bounds checks), a scalar
# XFAIR_SIMD=OFF build of the kernel layer, an XFAIR_OBS=0 compile
# check under -Werror (spans/counters compiled to no-ops), and a Release
# build under -Werror running the kernel, fairness-SHAP, gopher and
# tree-fit benches gated against the committed BENCH_*.json (tree_shap,
# flat_tree, obs_overhead, fairness_shap, gopher, tree_fit; 35%
# threshold, 8 ms noise floor, up to three attempts). With --bench, additionally regenerates all
# BENCH_*.json artifacts via scripts/bench.sh (Release build; slower)
# and gates them at bench_compare.py's defaults (15%, 1 ms floor).
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    *) echo "usage: $0 [--bench]" >&2; exit 2 ;;
  esac
done

echo "== tier-1: build + ctest =="
cmake -B build -S . > /dev/null
cmake --build build -j "$(nproc)"
(cd build && ctest --output-on-failure -j)

echo
echo "== tier-1 again with XFAIR_THREADS=4 =="
(cd build && XFAIR_THREADS=4 ctest --output-on-failure -j)

echo
echo "== JSON artifacts: valid and thread-count invariant =="
# Runs the monitor example with its bundle dump at one and at eight
# workers, each in its own scratch dir. Every JSON file it writes and
# every events.jsonl line must load with python3's json, the two stdouts
# must match, and the deterministic bundle files must be byte-identical
# across the two runs (trace.json and counters.json carry timings).
artifacts=build/json-artifacts
rm -rf "$artifacts"
for t in 1 8; do
  mkdir -p "$artifacts/t$t"
  (cd "$artifacts/t$t" && XFAIR_THREADS=$t \
    ../../examples/example_monitor_stream --bundle-dir bundles > stdout.txt)
done
python3 - "$artifacts" <<'PY'
import filecmp, json, pathlib, sys
root = pathlib.Path(sys.argv[1])
one, eight = root / "t1", root / "t8"
for run in (one, eight):
    json.loads((run / "monitor_stream.json").read_text())
    for f in run.glob("bundles/*/*.json"):
        json.loads(f.read_text())
    for f in run.glob("bundles/*/events.jsonl"):
        for line in f.read_text().splitlines():
            json.loads(line)
if (one / "stdout.txt").read_text() != (eight / "stdout.txt").read_text():
    sys.exit("example_monitor_stream stdout differs between 1 and 8 threads")
bundles = sorted(p.name for p in (one / "bundles").iterdir())
if not bundles or bundles != sorted(p.name for p in (eight / "bundles").iterdir()):
    sys.exit(f"bundle directories differ or are missing: {bundles}")
for b in bundles:
    for name in ("MANIFEST.json", "counter_deltas.json", "events.jsonl",
                 "monitor.json", "provenance.json"):
        if not filecmp.cmp(one / "bundles" / b / name,
                           eight / "bundles" / b / name, shallow=False):
            sys.exit(f"{b}/{name} differs between 1 and 8 threads")
print(f"json artifacts ok: {len(bundles)} bundles")
PY

echo
echo "== parallel_test under ThreadSanitizer (XFAIR_THREADS=8) =="
cmake -B build-tsan -S . -DXFAIR_TSAN=ON > /dev/null
cmake --build build-tsan -j "$(nproc)" --target parallel_test
XFAIR_THREADS=8 ./build-tsan/tests/parallel_test

echo
echo "== full suite under ASan + UBSan =="
cmake -B build-asan -S . -DXFAIR_ASAN=ON -DXFAIR_UBSAN=ON > /dev/null
cmake --build build-asan -j "$(nproc)" --target xfair_tests parallel_test
./build-asan/tests/xfair_tests
XFAIR_THREADS=4 ./build-asan/tests/parallel_test

echo
echo "== XFAIR_SIMD=OFF: scalar kernels must pass the same goldens =="
cmake -B build-nosimd -S . -DXFAIR_SIMD=OFF > /dev/null
cmake --build build-nosimd -j "$(nproc)" --target xfair_tests parallel_test
./build-nosimd/tests/xfair_tests
./build-nosimd/tests/parallel_test \
  --gtest_filter='BatchConsistencyTest.*:ParallelModel.*:ParallelExplain.*:ParallelUnfair.*:ParallelRegistry.*'

echo
echo "== XFAIR_OBS=0 compile check (spans/counters/monitors as no-ops) =="
# -Werror keeps the opted-out tree warning-free: helpers whose callers
# compile out with the macros must compile out with them. parallel_test
# is built for that check only; it is not run here. NewtonFit.* runs the
# logistic fit's counter and warning tests in their compiled-out form,
# *ShellSkipTest.* and LinearFlipRadius.* the growing-spheres counter
# tests in theirs, and LinearCandidateBound.* and BoxMuller.* the
# candidate bound and the split Box-Muller, which the search's
# compiled-out counters must not change.
cmake -B build-noobs -S . -DXFAIR_OBS=OFF -DCMAKE_CXX_FLAGS=-Werror > /dev/null
cmake --build build-noobs -j "$(nproc)" --target xfair_tests parallel_test \
  example_monitor_stream
./build-noobs/tests/xfair_tests \
  --gtest_filter='Counters.*:Tracer.*:BitIdentity.*:Monitor*:Exposition.*:Histograms.*:Recorder.*:EventLog.*:PerThreadLog.*:Json.*:NewtonFit.*:*ShellSkipTest.*:LinearFlipRadius.*:LinearCandidateBound.*:BoxMuller.*'
# The same example binary must run with zero monitoring output when the
# layer is compiled out (no alarms, no summaries, no artifacts) — and
# the alarm hook bus must never dump a diagnostic bundle.
noobs_bundles=build-noobs/noobs-bundles
rm -rf "$noobs_bundles"
noobs_out=$(./build-noobs/examples/example_monitor_stream \
  --events 512 --shift 256 --window 128 --bundle-dir "$noobs_bundles")
if [[ -n "$noobs_out" ]]; then
  echo "XFAIR_OBS=OFF example_monitor_stream produced output:" >&2
  echo "$noobs_out" >&2
  exit 1
fi
if [[ -d "$noobs_bundles" ]]; then
  echo "XFAIR_OBS=OFF example_monitor_stream created a bundle dir:" >&2
  ls "$noobs_bundles" >&2
  exit 1
fi

echo
echo "== bench-regression gate smoke (committed artifacts vs themselves) =="
python3 scripts/bench_compare.py . .

echo
echo "== tree_shap + flat_tree + fairness_shap + gopher + tree_fit + obs-overhead benches (Release) =="
# Runs the kernel bench, the fairness-SHAP bench, the gopher
# slice-discovery bench and the presorted GBM fit bench (tree_fit:
# GradientBoostedTrees::Fit vs the sort-per-node oracle) in a scratch dir
# so the committed BENCH_*.json stay untouched, and gates optimized_ms
# and the throughput fields (explanations_per_sec, rows_per_sec,
# audit_rows_per_sec, candidates_per_sec, batch_speedup, algo_speedup,
# looped_algo_speedup) against the committed artifacts through
# bench_compare.py
# (higher-is-better fields, 35% threshold, 8 ms --min-ms noise floor on
# the wall time each field derives from; fields under it print as "not
# gated"). BENCH_flat_tree.json's algo_speedup (the pointer walk over the
# packed tree scorer's batch, both timed in the same run) is what falls
# when PredictProbaBatch stops taking the packed path, and its
# looped_algo_speedup (the walk over the per-row PredictProba loop) when
# the per-row route does. The same run gates the always-on sink cost: the
# top-level *_overhead_pct fields in BENCH_obs_overhead.json must stay
# within bench_compare.py's absolute --max-overhead-pct budget (2%).
# Each bench is filtered to one cheap benchmark: the JSON artifacts are
# written by their PrintOnce blocks, which any benchmark triggers. The
# tree builds under -Werror, so a warning only -O3 inlining shows fails
# here.
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-Werror > /dev/null
cmake --build build-release -j "$(nproc)" --target bench_kernels \
  bench_fairness_shap bench_gopher bench_tree_fit
baseline_one=build-release/bench-committed
rm -rf "$baseline_one" && mkdir -p "$baseline_one"
cp BENCH_tree_shap.json BENCH_flat_tree.json BENCH_fairness_shap.json \
  BENCH_gopher.json BENCH_tree_fit.json BENCH_obs_overhead.json \
  "$baseline_one"/
# This quick gate exists to catch "the fast path stopped running"
# regressions, which show up as 2-10x swings — not to re-measure the
# committed numbers precisely. The host is a shared VM (nproc reports 4
# cores) whose speed drifts: CPU contention bursts swing even 30-50ms
# workloads by +-30%, so the quick gate runs at a 35% threshold with an
# 8ms noise floor and retries the whole measure+compare step up to three
# times (a genuine regression fails every attempt; a contention burst
# fails at most one or two). The precise 15% gate remains available via
# --bench on a quiet machine, and the absolute 2% *_overhead_pct budget
# is floor-vs-floor and applies unchanged on every attempt. End-to-end
# claims (audit rows/s, stage times) come from perfbench/run.py and
# back-to-back sets compared with perfbench/steady.py, not from here.
bench_gate_ok=0
for attempt in 1 2 3; do
  bench_out=build-release/bench-out
  rm -rf "$bench_out" && mkdir -p "$bench_out"
  (cd "$bench_out" && ../bench/bench_kernels --benchmark_min_time=0.01)
  (cd "$bench_out" && ../bench/bench_fairness_shap \
    --benchmark_min_time=0.01 --benchmark_filter='BM_FairnessShapMask/300')
  (cd "$bench_out" && ../bench/bench_gopher --benchmark_min_time=0.01 \
    --benchmark_filter='BM_GopherEstimateOnly/300')
  (cd "$bench_out" && ../bench/bench_tree_fit --benchmark_min_time=0.01 \
    --benchmark_filter='BM_GbmFit/1500')
  if python3 scripts/bench_compare.py "$baseline_one" "$bench_out" \
      --min-ms 8 --threshold 35; then
    bench_gate_ok=1
    break
  fi
  echo "bench gate attempt $attempt regressed; retrying on a quieter window"
done
if [[ "$bench_gate_ok" != 1 ]]; then
  echo "bench gate failed on all attempts" >&2
  exit 1
fi

if [[ "$run_bench" == 1 ]]; then
  echo
  echo "== bench artifacts (scripts/bench.sh) + regression gate =="
  baseline_dir=build/bench-baseline
  rm -rf "$baseline_dir" && mkdir -p "$baseline_dir"
  cp BENCH_*.json "$baseline_dir"/
  ./scripts/bench.sh
  python3 scripts/bench_compare.py "$baseline_dir" .
fi

echo
echo "verify: all checks passed"
