#!/usr/bin/env python3
"""Compare two sets of BENCH_*.json artifacts and fail on regressions.

Usage: bench_compare.py BASELINE_DIR CURRENT_DIR [--threshold PCT]
       [--min-ms MS] [--max-overhead-pct PCT]

For every BENCH_<name>.json present in both directories, compares

  * optimized_ms  — regression when current > baseline * (1 + threshold)
  * algo_speedup  — regression when current < baseline * (1 - threshold)
  * looped_algo_speedup, batch_speedup and every *_per_sec throughput
    field (e.g. explanations_per_sec, audit_rows_per_sec) — higher is
    better, same threshold

and exits nonzero if any comparison regresses by more than the threshold
(default 15%). Additionally, every top-level *_overhead_pct field in the
CURRENT artifact is gated absolutely: the run fails when the measured
overhead exceeds --max-overhead-pct (default 2.0). This is how the
always-on observability sinks (flight recorder, event log) prove their
idle cost stays at noise level; it compares against a budget, not
against the baseline run. Workloads faster than --min-ms (default 1.0 ms) in the
baseline are reported but never fail the gate: at sub-millisecond scale
the scheduler owns more of the measurement than the algorithm does. For
throughput fields the noise floor is the baseline's batch_ms (the wall
time the rate was derived from; optimized_ms when the artifact has no
batch_ms), and algo_speedup's floor is the baseline's optimized_ms —
the fast side of that ratio, which is where its noise lives;
looped_algo_speedup's is likewise the baseline's looped_ms. Those rows
print as "not gated (baseline X ms < floor)" instead of "ok", and each
artifact's block ends with its number of gated fields. Benches present
on only one side are reported but do not fail the gate.
"""

import argparse
import glob
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline_dir")
    ap.add_argument("current_dir")
    ap.add_argument("--threshold", type=float, default=15.0,
                    help="regression threshold in percent (default 15)")
    ap.add_argument("--min-ms", type=float, default=1.0,
                    help="ignore optimized_ms regressions when the "
                         "baseline is below this (default 1.0 ms)")
    ap.add_argument("--max-overhead-pct", type=float, default=2.0,
                    help="absolute budget for top-level *_overhead_pct "
                         "fields in the current artifacts (default 2.0)")
    args = ap.parse_args()
    frac = args.threshold / 100.0

    base_files = {os.path.basename(p): p for p in sorted(
        glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json")))}
    cur_files = {os.path.basename(p): p for p in sorted(
        glob.glob(os.path.join(args.current_dir, "BENCH_*.json")))}
    if not base_files:
        print(f"bench_compare: no BENCH_*.json in {args.baseline_dir}",
              file=sys.stderr)
        return 2

    regressions = []
    for name in sorted(set(base_files) | set(cur_files)):
        if name not in base_files:
            print(f"  {name}: only in current (new bench, not gated)")
            continue
        if name not in cur_files:
            print(f"  {name}: MISSING from current run (not gated)")
            continue
        base = load(base_files[name])
        cur = load(cur_files[name])
        # (field, baseline, current, delta %, regressed, noise ms): noise
        # ms is the baseline wall time under --min-ms that leaves the
        # field ungated, None when the field is gated.
        rows = []

        b_ms, c_ms = base.get("optimized_ms"), cur.get("optimized_ms")
        if b_ms is not None and c_ms is not None and b_ms > 0:
            delta = 100.0 * (c_ms / b_ms - 1.0)
            noise = b_ms if b_ms < args.min_ms else None
            bad = c_ms > b_ms * (1.0 + frac) and noise is None
            rows.append(("optimized_ms", b_ms, c_ms, delta, bad, noise))

        # Higher-is-better fields: the algorithmic-speedup ratios of the
        # batch and of the looped route, the batch-vs-looped ratio, and
        # any throughput rate. Throughput rates inherit the --min-ms
        # noise floor through the batch wall time they were derived from
        # (falling back to the optimized wall time when the artifact
        # carries no batch_ms).
        batch_ms = base.get("batch_ms")
        if batch_ms is None:
            batch_ms = base.get("optimized_ms")
        # algo_speedup's noise scale is the optimized wall time the
        # ratio was derived from (the baseline side is orders of
        # magnitude slower, so its noise is negligible in the ratio).
        # looped_algo_speedup's is the looped wall time, likewise.
        scales = {"algo_speedup": b_ms,
                  "looped_algo_speedup": base.get("looped_ms")}
        higher_is_better = ["algo_speedup", "looped_algo_speedup",
                            "batch_speedup"] + sorted(
            k for k in base if isinstance(k, str) and k.endswith("_per_sec"))
        for field in higher_is_better:
            b_sp, c_sp = base.get(field), cur.get(field)
            if b_sp is None or c_sp is None or b_sp <= 0:
                continue
            delta = 100.0 * (c_sp / b_sp - 1.0)
            scale = scales.get(field, batch_ms)
            noisy = scale is not None and scale < args.min_ms
            noise = scale if noisy else None
            bad = c_sp < b_sp * (1.0 - frac) and noise is None
            rows.append((field, b_sp, c_sp, delta, bad, noise))

        gated = 0
        for field, b, c, delta, bad, noise in rows:
            if noise is not None:
                mark = f"not gated (baseline {noise:.3f} ms < floor)"
            else:
                gated += 1
                mark = "REGRESSION" if bad else "ok"
            print(f"  {name} {field}: {b:.3f} -> {c:.3f} "
                  f"({delta:+.1f}%) {mark}")
            if bad:
                regressions.append((name, field, delta))

        # Absolute budget for always-on sink overhead: a top-level
        # *_overhead_pct field measures "enabled vs off" in the current
        # run, so it is gated against --max-overhead-pct rather than
        # against the baseline artifact.
        for field in sorted(k for k in cur if isinstance(k, str)
                            and k.endswith("_overhead_pct")):
            val = cur.get(field)
            if not isinstance(val, (int, float)):
                continue
            bad = val > args.max_overhead_pct
            gated += 1
            mark = "OVER BUDGET" if bad else "ok"
            print(f"  {name} {field}: {val:+.1f}% "
                  f"(budget {args.max_overhead_pct:.1f}%) {mark}")
            if bad:
                regressions.append((name, field, val))
        print(f"  {name}: {gated} gated field(s) "
              f"(floor {args.min_ms:g} ms)")

    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s) beyond "
              f"{args.threshold:.0f}%:", file=sys.stderr)
        for name, field, delta in regressions:
            print(f"  {name} {field} {delta:+.1f}%", file=sys.stderr)
        return 1
    print("bench_compare: no regressions beyond "
          f"{args.threshold:.0f}% threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
