#!/usr/bin/env python3
"""Steadiness of the benchmark: run each workload k times and compare spreads.

    python3 pifbench/steady.py [--runs 10] [--seed0 1] [--seconds S]
                               [--workloads a,b,...] [--json PATH]
                               [--compare PATH]

Each run is `pifbench/run.py --workload W --seed <seed0+i> --seconds S
--trace 0` in its own process.  Run i of every workload comes before run
i+1 of any, so that a change of host speed during the set is spread over
all workloads instead of landing on one.  For every end-to-end metric of
BENCHMARK.json it prints the median and the quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median, and
flags:

  * OVER   the spread exceeds the metric's bound;
  * WIDE   the spread exceeds a third of the bound (the steadiness target).

Every OVER makes the exit code 1, setup_s included.

It also prints the not-gated tail (wave_ms_tail and its percentile) and the
share of failed operations, which must be identical across runs.

With --compare PATH (a --json summary of an earlier set), it also flags every
metric whose median got worse than that set's by more than its bound, setup_s
included: two sets of runs of the same code must agree within the bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    info = {}
    for line in lines:  # "  name   value unit" rows of the printed report
        parts = line.split()
        if len(parts) == 3 and parts[0] in ("wave_ms_tail", "wave_ms_tail_percentile"):
            info[parts[0]] = float(parts[1])
    return result, info


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--json", help="also write the summary here")
    ap.add_argument("--compare", help="summary of an earlier set to compare medians with")
    args = ap.parse_args()
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            earlier = json.load(f)
    if args.runs < 2:
        ap.error("--runs must be at least 2 (quartiles need two values)")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        for workload in workloads:
            seed = args.seed0 + i
            t0 = time.monotonic()
            result, info = one_run(workload, seed, args.seconds)
            runs[workload].append((seed, result, info))
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"run_s={time.monotonic() - t0:.1f}", file=sys.stderr)

    summary = {}
    flagged = 0
    for workload in workloads:
        results = runs[workload]
        rows = {}
        print(f"\n{workload}: {args.runs} runs of {args.seconds} s, seeds "
              f"{args.seed0}..{args.seed0 + args.runs - 1}")
        print(f"  {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>7}  flag")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for _, r, _ in results]
            q1, med, q3, s = spread(values)
            flag = ""
            if s > bound:
                flag = "OVER"
                flagged += 1
            elif s > bound / 3:
                flag = "WIDE"
            before = earlier.get(workload, {}).get(name)
            if before:
                old = before["median"]
                worse = (old - med) / old if name in higher else (med - old) / old
                flag += f" vs earlier {worse:+.4f}"
                if worse > bound:
                    flag += " WORSE"
                    flagged += 1
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                          "bound": bound, "values": values}
            print(f"  {name:<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{s:>9.4f}"
                  f"{bound:>7}  {flag}")
        tails = [i["wave_ms_tail"] for _, _, i in results if "wave_ms_tail" in i]
        pcts = sorted({i["wave_ms_tail_percentile"] for _, _, i in results
                       if "wave_ms_tail_percentile" in i})
        if len(tails) >= 2:
            q1, med, q3, s = spread(tails)
            print(f"  {'wave_ms_tail (info)':<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{s:>9.4f}      -  percentile(s) {pcts}")
            rows["wave_ms_tail"] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                                    "percentiles": pcts, "values": tails}
        shares = {r["failed"] / r["attempted"] for _, r, _ in results}
        print(f"  failed share per run: {sorted(shares)}"
              + ("" if len(shares) == 1 else "  DIFFERS"))
        flagged += len(shares) != 1
        correct = all(r["correct"] for _, r, _ in results)
        if not correct:
            print("  some run reported correct=false")
            flagged += 1
        summary[workload] = rows
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
