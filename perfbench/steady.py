#!/usr/bin/env python3
"""Steadiness report: run workloads repeatedly and compare spread with bounds.

    python3 perfbench/steady.py [--workload w ...] [--runs 10] [--sets 1]
                                [--first-seed 1] [--fixed-seed] [--seconds s]

Run from the repository root. Each run goes through perfbench/run.py,
untraced, with its own seed (first-seed, first-seed+1, ...), or with
--fixed-seed every run with first-seed. Varying seeds is how the benchmark
is judged, so its spread mixes input variation with run-to-run noise; a
fixed seed leaves only the noise. For every end-to-end metric of
BENCHMARK.json the report gives the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, i.e. the
inter-quartile distance as a share of the median, against the metric's
bound. A spread above a third of the bound is flagged "wide", above the
bound "OVER". With --sets 2 the runs are made twice (same seeds, one set
after the other) and the report also gives how much the second median is
worse than the first, against the bound. Exits 1 if any run fails or is
incorrect, or if any spread or median shift exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def worse_by(first: float, second: float, better: str) -> float:
    """How much `second` is worse than `first`, as a share of `first`."""
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--fixed-seed", action="store_true",
                        help="run every time with --first-seed")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = [args.first_seed + (0 if args.fixed_seed else i) for i in range(args.runs)]
    seed_text = (f"seed {args.first_seed} every run" if args.fixed_seed
                 else f"seeds {seeds[0]}..{seeds[-1]}")
    ok = True
    for workload in workloads:
        sets = []
        for _ in range(args.sets):
            runs = []
            for seed in seeds:
                try:
                    runs.append(run_once(workload, seed, args.seconds))
                except RuntimeError as e:
                    print(f"FAILED {e}")
                    return 1
            sets.append(runs)
        print(f"== {workload}: {args.runs} runs x {args.sets} set(s), {seed_text}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            medians = []
            for runs in sets:
                med, q1, q3, sp = spread([r[name] for r in runs])
                medians.append(med)
                flag = "ok"
                if sp > bound:
                    flag = "OVER"
                    ok = False
                elif sp > bound / 3:
                    flag = "wide"
                cells.append(f"median {med:.4g} q1 {q1:.4g} q3 {q3:.4g} "
                             f"spread {100 * sp:.1f}% [{flag}]")
            line = f"  {name:<17} bound {100 * bound:.0f}%  " + " | ".join(cells)
            if len(medians) == 2:
                shift = worse_by(medians[0], medians[1], metric["better"])
                verdict = "ok" if shift <= bound else "OVER"
                ok = ok and shift <= bound
                line += f" | 2nd worse by {100 * shift:+.1f}% [{verdict}]"
            print(line, flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
