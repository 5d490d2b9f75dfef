#!/usr/bin/env python3
"""Tiny-scale smoke test of every benchmark workload.

    python3 perfbench/smoke.py

Run from the repository root. For each workload of BENCHMARK.json it runs
perfbench/run.py at smoke-test sizes (--tiny 1), untraced and traced, and
checks that the result line has exactly the contract's keys, that every
end-to-end (untraced) or per-layer (traced) metric prints with its unit,
that every output checksum verified (correct, 0 failed), and that the traced
run's chrome-trace JSON parses and holds the workload's layer spans. Last,
it checks that a copy of the benchmark without the library sources fails
without printing a result. Exits 1 on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (build_dir: where run.py puts builds and traces)

SEED = 7
# Spans each workload's traced run must record, besides bench.op.
LAYER_SPANS = {
    "reduce_sweep3d": {"trace.decode", "trace.segment", "core.reduce", "trace.encode"},
    "match_random_walk": {"trace.decode", "trace.segment", "core.reduce", "trace.encode"},
    "merge_sparse_16k": {"trace.decode", "trace.segment", "core.reduce", "core.merge",
                         "trace.encode"},
    "serve_mixed": {"serve.reduce_remote", "bench.large_op"},
}


def fail(message: str) -> None:
    print(f"smoke: FAIL: {message}")
    sys.exit(1)


def run_bench(workload: str, trace: int, cwd: Path = ROOT, env=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.5", "--trace", str(trace), "--tiny", "1"]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=600)


def check_result(workload: str, trace: int, expected: list) -> None:
    proc = run_bench(workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} --trace {trace}: correct={result['correct']} "
             f"failed={result['failed']} attempted={result['attempted']}")
    got = {name: (m["unit"], m["value"]) for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if {name: unit for name, (unit, _) in got.items()} != want:
        fail(f"{workload} --trace {trace}: metrics {sorted(got)} != {sorted(want)}")
    for name, (_, value) in got.items():
        if not math.isfinite(value) or (trace == 0 and value <= 0):
            fail(f"{workload}: {name} = {value}")


def check_spans(workload: str) -> None:
    path = run.build_dir() / "traces" / f"{workload}-seed{SEED}.json"
    events = json.loads(path.read_text())["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "X" and e["dur"] >= 0}
    missing = ({"bench.op", "bench.setup"} | LAYER_SPANS[workload]) - names
    if missing:
        fail(f"{workload}: spans missing from {path.name}: {sorted(missing)}")


def check_fails_without_sources() -> None:
    bare = run.build_dir() / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = run_bench("reduce_sweep3d", 0, cwd=bare, env=env)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("a copy without the library sources did not fail cleanly")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        check_result(w["name"], 0, bench["end_to_end"])
        check_result(w["name"], 1, bench["per_layer"])
        check_spans(w["name"])
        print(f"smoke: {w['name']}: ok", flush=True)
    check_fails_without_sources()
    print("smoke: benchmark without sources fails cleanly: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
