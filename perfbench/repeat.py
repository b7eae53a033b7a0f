#!/usr/bin/env python3
"""Runs the benchmark repeatedly and summarizes each metric's spread.

    python3 perfbench/repeat.py --workloads measure-cold,serve-mixed \\
        --seeds 1-10 [--seconds 20] [--trace 0] [--out FILE]

It runs `perfbench/run.py` once per seed and workload, one run at a
time, interleaved seed by seed (seed 1 on every workload, then seed 2,
...), so that a slow phase of the host spreads over all the workloads
instead of falling on one workload's whole set. It reports for each
metric the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), and the spread: the distance
between the quartiles as a share of the median. With `--out` the
summary, every run's metrics and details included, is written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def one_run(workload, seed, seconds, trace):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900,
    )
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout[-3000:])
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    details = next(json.loads(line)["details"] for line in lines if line.startswith('{"workload"'))
    return result, details, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    results = {workload: ([], [], []) for workload in workloads}
    for seed in seeds:
        for workload in workloads:
            result, detail, wall = one_run(workload, seed, args.seconds, args.trace)
            runs, details, walls = results[workload]
            runs.append(result["metrics"])
            details.append(detail)
            walls.append(wall)
            print(f"{workload} seed {seed}: {wall:.1f}s", file=sys.stderr)
    report = {}
    for workload, (runs, details, walls) in results.items():
        metrics = {
            name: dict(summarize([run[name]["value"] for run in runs]), unit=runs[0][name]["unit"])
            for name in runs[0]
        }
        report[workload] = {"seeds": seeds, "run_wall_s": summarize(walls), "metrics": metrics,
                            "details": details}
        print(f"== {workload} ({len(seeds)} runs, median wall {statistics.median(walls):.1f}s)")
        for name, m in metrics.items():
            print(f"  {name:<34} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
