#!/usr/bin/env python3
"""Checks that the fleet benchmark repeats within its own bounds.

    python3 perfbench/steadiness.py [--workloads backfill,live] [--out FILE]

Runs two sets of ten untraced runs per workload, one set after the other,
each run as long as BENCHMARK.json's run_seconds. Within a set the chosen
workloads alternate, and every run of a workload gets another seed (set 1
uses seeds 1..10, set 2 seeds 101..110). For each workload
and end-to-end metric it prints each set's median and quartiles, the
spread (quartile distance over the median), and the gap between the two
set medians in the worse direction, next to the metric's bound from
BENCHMARK.json. It also compares the share of failed operations between
the sets. The raw results are written to --out as JSON (default:
.bench_build/perfbench-runs/steadiness.json) and every run's progress
lines to the same path with a .log suffix. Exit code 1 when a spread or
a gap exceeds its bound or the failed shares differ.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SET_SEED_BASE = (1, 101)
RUNS = 10


def run_once(workload, seed, seconds, log):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    log.write(f"== {workload} seed {seed}\n")
    log.flush()
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=log,
                          text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    print(f"  {workload:9s} seed {seed:4d}: {result['wall_s']:5.1f} s, "
          f"correct={result['correct']}", flush=True)
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="backfill,live")
    parser.add_argument("--out", default=str(ROOT / ".bench_build" /
                                             "perfbench-runs" / "steadiness.json"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",")
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sets = []
    with open(out.with_suffix(".log"), "w") as log:
        for index, base in enumerate(SET_SEED_BASE):
            print(f"set {index + 1}:", flush=True)
            results = {w: [] for w in workloads}
            for i in range(RUNS):
                for workload in workloads:
                    results[workload].append(
                        run_once(workload, base + i, seconds, log))
            sets.append(results)

    out.write_text(json.dumps({"seconds": seconds, "sets": sets}, indent=1))

    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':27s} {'set1 median [q1, q3]':>34s} "
              f"{'set2 median [q1, q3]':>34s} {'spread1':>8s} {'spread2':>8s} "
              f"{'gap':>7s} {'bound':>6s}")
        for name, metric in metrics.items():
            rows = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results[workload]]
                rows.append(summary(values))
            spreads = [(q3 - q1) / median for median, q1, q3 in rows]
            gap = (rows[1][0] - rows[0][0]) / rows[0][0]
            if metric["better"] == "higher":
                gap = -gap
            bound = metric["bound"]
            bad = gap > bound or max(spreads) > bound
            ok = ok and not bad
            cells = [f"{m:.6g} [{a:.6g}, {b:.6g}]" for m, a, b in rows]
            print(f"  {name:27s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{spreads[0]:8.3f} {spreads[1]:8.3f} {gap:+7.3f} {bound:6.2f}"
                  f"{'  OVER' if bad else ''}")
        shares = []
        for results in sets:
            attempted = sum(r["attempted"] for r in results[workload])
            failed = sum(r["failed"] for r in results[workload])
            shares.append(failed / attempted)
        incorrect = sum(not r["correct"] for s in sets for r in s[workload])
        print(f"  failed share: {shares[0]:.6g} / {shares[1]:.6g}; "
              f"incorrect runs: {incorrect}")
        ok = ok and shares[0] == shares[1] and incorrect == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
