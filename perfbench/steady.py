#!/usr/bin/env python3
"""Steadiness check: many separate runs, quartiles, bounds, sim repeats.

    python3 perfbench/steady.py --runs 10 --repeat 2
    python3 perfbench/steady.py --runs 1     # every metric of every workload, once

Runs every workload of BENCHMARK.json ``--runs`` times, each run in its
own process.  Even rounds go through the workloads in order and odd
rounds in reverse.  Run ``i`` uses seed ``1 + i // --repeat``, so
``--repeat 2`` gives each seed twice.  The check fails if any ``sim_*``
value differs between two runs with the same seed.

For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, which is (Q3 - Q1) / median.
It marks a spread above a third of the metric's bound in BENCHMARK.json
with ``warn`` and a spread above the bound with ``FAIL``.  A metric that
reads the same on every seed is a ``FAIL`` too.  Every ``MISMATCH`` or ``SIM-DRIFT`` line a run
prints is repeated as a problem.  The exit code is 1 on any FAIL, wrong
output or sim mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{done.stderr}")
    result = json.loads(lines[-1])
    result["returncode"] = done.returncode
    result["listed"] = [line for line in lines
                        if line.startswith(("MISMATCH ", "SIM-DRIFT "))]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per seed (2+ checks that sim_* values repeat)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    values = {name: {} for name in names}
    units = {}
    sims = {name: {} for name in names}
    problems = []
    for index in range(args.runs):
        seed = 1 + index // args.repeat
        order = names if index % 2 == 0 else list(reversed(names))
        for name in order:
            started = time.perf_counter()
            result = run_once(name, seed, seconds)
            wall = time.perf_counter() - started
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"run {index:2d} {name:14s} seed {seed:3d} wall {wall:6.1f}s "
                  f"correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']}", flush=True)
            if not result["correct"] or result["returncode"] != 0:
                problems.append(f"{name} seed {seed}: incorrect output or exit code")
            problems.extend(f"{name} seed {seed}: {line}" for line in result["listed"])
            for metric, value in metrics.items():
                values[name].setdefault(metric, []).append(value)
                units[metric] = result["metrics"][metric]["unit"]
            sim = {k: v for k, v in metrics.items() if k.startswith("sim_")}
            previous = sims[name].setdefault(seed, sim)
            if previous != sim:
                problems.append(f"{name} seed {seed}: sim_* values differ between runs "
                                f"({previous} vs {sim})")

    worst = 0.0
    for name in names:
        print(f"\n== {name} ({args.runs} runs)")
        for metric in sorted(values[name]):
            series = values[name][metric]
            median = statistics.median(series)
            if len(series) < 2:
                print(f"  {metric:18s} {median:<12.6g} {units[metric]}")
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "FAIL"
                    problems.append(f"{name} {metric}: spread {spread:.3f} > bound {bound}")
                elif spread > bound / 3:
                    flag = "warn"
                worst = max(worst, spread / bound)
            if len(set(series)) == 1 and args.runs > args.repeat:
                flag = "FAIL"
                problems.append(f"{name} {metric}: reads {median} on every seed")
            print(f"  {metric:18s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"{units[metric]:10s} spread {spread:7.4f} bound {bound} {flag}")
    print(f"\nworst spread / bound: {worst:.3f}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
