#!/usr/bin/env python3
"""Run each workload in two back-to-back sets and report how steady it is.

Usage (from the repository root):
  python3 perfbench/steadiness.py [--runs 10]
      [--workloads plate-disk,plate-hybrid,serve-window] [--seconds S]

Each set runs a workload once per seed 1..runs. For every end-to-end metric
it prints, per set, the median and the spread (Q3 - Q1) / median
(statistics.quantiles, n=4), and the drift: how much worse the second set's
median is than the first's, as a share of the first. Each is compared with
the metric's bound from BENCHMARK.json; a spread above a third of the bound,
or a drift above the bound, is flagged. It also checks that the per-request
work line ("work per request: ...") is identical in every run of a workload,
so work that depends on timing shows up as a failure.
Exit code is non-zero if any run fails or the work differs between runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2


def run_set(workload, runs, seconds):
    """Runs one set; returns ({metric: [values]}, work lines, ok)."""
    values, work_lines, ok = {}, set(), True
    for seed in range(1, runs + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().split("\n")
        if proc.returncode != 0:
            print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})\n"
                  + proc.stdout)
            ok = False
            continue
        result = json.loads(lines[-1])
        work_lines.update(l for l in lines if l.startswith("work per request:"))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    return values, work_lines, ok


def spread(vals):
    med = statistics.median(vals)
    if len(vals) < 2 or not med:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        sets, work_lines = [], set()
        for _ in range(SETS):
            values, lines, set_ok = run_set(workload, args.runs, args.seconds)
            sets.append(values)
            work_lines |= lines
            ok = ok and set_ok
        if len(work_lines) > 1:
            print(f"{workload}: work per request differs between runs:")
            for line in sorted(work_lines):
                print("  " + line)
            ok = False
        print(f"\n{workload}: {SETS} sets of {args.runs} runs")
        print(f"  {'metric':16} {'median 1':>12} {'spread 1':>9} "
              f"{'median 2':>12} {'spread 2':>9} {'drift':>8} {'bound':>6}")
        for name, m in metrics.items():
            if not all(name in s for s in sets):
                continue
            (med1, sp1), (med2, sp2) = (spread(s[name]) for s in sets)
            worse = (med2 - med1) if m["better"] == "lower" else (med1 - med2)
            drift = worse / med1 if med1 else 0.0
            flags = []
            if max(sp1, sp2) > m["bound"] / 3:
                flags.append("spread above bound/3")
            if drift > m["bound"]:
                flags.append("drift above bound")
            print(f"  {name:16} {med1:12.6g} {sp1:9.4f} {med2:12.6g} "
                  f"{sp2:9.4f} {drift:8.4f} {m['bound']:6}"
                  + ("  <-- " + ", ".join(flags) if flags else ""))
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
