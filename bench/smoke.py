"""Smoke check of the benchmark, run from the root of a checkout:

    python3 bench/smoke.py

Runs every workload for one second, untraced and traced, and fails unless
each run exits 0 and prints every metric that BENCHMARK.json names, with
its unit, and no operation failed (error_rate 0).  It then copies
BENCHMARK.json and the benchmark's files into an otherwise empty directory
and checks that the benchmark refuses to run there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SECONDS = "1"


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_run(command: list[str], root: Path, workload: str, trace: int,
              expected: dict[str, str]) -> list[str]:
    argv = [*command, "--workload", workload, "--seed", "1", "--seconds", SECONDS,
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=300)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stderr}"]
    result = last_json(done.stdout)
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{where}: last line is not the result object"]
    problems = []
    if result["failed"] != 0 or not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} failed\n"
                        f"{done.stderr}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        diff = sorted(set(got.items()) ^ set(expected.items()))
        problems.append(f"{where}: metric names or units differ: {diff}")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or (trace == 0 and not value > 0):
            problems.append(f"{where}: {name} = {value!r}")
    return problems


def check_bare_directory(command: list[str], root: Path, spec: dict) -> list[str]:
    with tempfile.TemporaryDirectory(prefix=".bench-smoke-", dir=root) as bare:
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(root / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        argv = [*command, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                "--seconds", SECONDS, "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
    if done.returncode == 0 or last_json(done.stdout) is not None:
        return ["bare directory: the benchmark ran or printed a result"]
    return []


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    command = [sys.executable if spec["command"][0] == "python3" else spec["command"][0],
               *spec["command"][1:]]
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(command, root, workload, trace, expected[trace])
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}", flush=True)
            problems += found
    found = check_bare_directory(command, root, spec)
    print(f"{'FAIL' if found else 'ok  '} refuses to run without the package")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
