"""Smoke run of the benchmark at tiny trial counts.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json for one second in both modes with
every campaign cut to the smallest size, and checks that the last line is a
correct result naming exactly the benchmark's metrics, each with its unit.
It then copies only BENCHMARK.json and the benchmark directories into a bare
directory and checks that the benchmark exits non-zero there without a
result.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "0",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    done = bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: not correct\n{done.stderr[-2000:]}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    if printed != expected:
        problems.append(f"{where}: metrics {printed} != {expected}")
    for name, metric in result["metrics"].items():
        if not (isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])):
            problems.append(f"{where}: {name} = {metric['value']!r}")
    return problems


def check_bare(spec: dict) -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(
                ROOT / path, bare / path,
                ignore=shutil.ignore_patterns("out", "__pycache__"),
            )
        done = bench(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_result(spec, workload["name"], trace)
            print(f"smoke: {workload['name']} --trace {trace} done", flush=True)
    for problem in problems:
        print(f"smoke: FAIL {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
