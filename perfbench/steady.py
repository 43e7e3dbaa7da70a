#!/usr/bin/env python3
"""Steadiness tool for the benchmark in BENCHMARK.json.

Run each workload once per seed and report every metric's median and
spread (interquartile range as a share of the median) against the bound
BENCHMARK.json gives it, if any; save the runs for a later comparison:

    python3 perfbench/steady.py run --seeds 10 --out runs-a.json \
        [--workloads audit_lr_24k,stream_monitored] [--first-seed 1]

Compare two sets of runs of the same build: each metric's two medians
must agree within its bound, in either direction:

    python3 perfbench/steady.py compare runs-a.json runs-b.json

A spread marked "wide" is at least a third of its bound. Both subcommands
exit non-zero when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def cmd_run(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    runs = {}
    ok = True
    for workload in workloads:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            metrics = run_once(spec, workload, seed)
            runs[workload].append({"seed": seed, "metrics": metrics})
            print(f"{workload} seed {seed}: " +
                  ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                  flush=True)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        print(f"\n{workload}: {'metric':<22} {'median':>14} {'spread':>8} "
              f"{'bound':>6}")
        for name in runs[workload][0]["metrics"]:
            values = [r["metrics"][name] for r in runs[workload]]
            median, s = spread(values)
            bound = bounds.get(name)
            wide = bound is not None and s >= bound / 3
            ok = ok and not wide
            verdict = "-" if bound is None else "wide" if wide else "steady"
            print(f"  {name:<30} {median:>14.6g} {s:>8.4f} "
                  f"{'-' if bound is None else bound:>6} {verdict}")
        print()
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


def cmd_compare(args):
    spec = load_spec()
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    ok = True
    for workload in first:
        if workload not in second:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            if name not in first[workload][0]["metrics"]:
                continue
            a = statistics.median(r["metrics"][name] for r in first[workload])
            b = statistics.median(r["metrics"][name]
                                  for r in second[workload])
            change = (b - a) / a
            passed = abs(change) <= m["bound"]
            ok = ok and passed
            print(f"{workload:<18} {name:<18} {a:>14.6g} {b:>14.6g} "
                  f"change {change:+.4f} bound {m['bound']} "
                  f"{'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads over several seeds")
    run.add_argument("--seeds", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--workloads", default="")
    run.add_argument("--out", default="")
    compare = sub.add_parser("compare", help="compare two saved sets")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
