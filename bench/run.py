"""qdialogue benchmark: one workload per invocation, run from the root of a
source checkout.

    python3 bench/run.py --workload mc-control --seed 1 --seconds 30 --trace 0

Workloads: mc-control, session-mixed, exact-grid, cli-calls (see
bench/README.md).  The package is used from ``src/`` and only through its
public functions and the ``qdialogue`` command; it receives only the seeds
and bits generated here from ``--seed``.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a separate traced run.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import REPORTED_SPANS, import_split
from workloads import (
    GRID_ATTACKS,
    GRID_PAIRINGS,
    LOOP_REFERENCE_S,
    MC_ATTACKS,
    REFERENCE_PROCESS_S,
    SESSION_PAIRINGS,
    SINGLE_THREAD_ENV,
    WARMUP,
    WORKLOADS,
    build_attack,
    convention,
)

#: ``-X importtime`` runs of a traced run; the median of each part is reported
IMPORTTIME_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "call_s_p50": "s",
    "call_s_p90": "s",
    "peak_rss_mb": "MB",
}

#: what ``throughput_per_s`` counts on each workload
THROUGHPUT_NAME = {
    "mc-control": "rounds_per_s",
    "session-mixed": "rounds_per_s",
    "exact-grid": "reports_per_s",
    "cli-calls": "invocations_per_s",
}

PER_LAYER = {
    **{f"{span}.{kind}": unit for span in REPORTED_SPANS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"qcore.draws_per_round.{attack}": "count" for attack in MC_ATTACKS},
    "attacks.apply_eve.useful_ratio": "ratio",
    "protocol.RoundConfig.calls": "count",
    "exactstate.leaves_per_report": "count",
    "cli.import_numpy_s": "s",
    "cli.import_qdialogue_s": "s",
    "cli.import_other_s": "s",
    "cli.process_s": "s",
    "trace.work_units": "count",
    "trace.overhead_ratio": "ratio",
}


def references(root: Path, workload: str) -> dict:
    """Exact values the worker checks its outputs against, computed here,
    untimed and outside the measured process."""
    if workload == "cli-calls":
        return {}  # golden files and first-run outputs
    sys.path.insert(0, str(root / "src"))
    import qdialogue as qd

    if workload == "mc-control":
        return {"detect": {a: str(qd.enumerate_exact(build_attack(qd, a)).average)
                           for a in MC_ATTACKS}}
    if workload == "session-mixed":
        detect = {}
        for a in MC_ATTACKS:
            for oc, ec, cmp in SESSION_PAIRINGS:
                report = qd.enumerate_exact(build_attack(qd, a), convention(qd, oc),
                                            convention(qd, ec), cmp)
                detect[f"{a}/{oc}/{ec}/{cmp}"] = str(report.average)
        message = {}
        for a in MC_ATTACKS:
            m = qd.message_error_rate(build_attack(qd, a))
            message[a] = (str(m.alice_to_bob), str(m.bob_to_alice))
        return {"detect": detect, "message": message}

    sys.path.insert(0, str(root / "tests"))
    from oracle import oracle_detection

    oracle = {}
    for a in GRID_ATTACKS:
        for oc, ec, cmp in GRID_PAIRINGS:
            avg, per_case = oracle_detection(build_attack(qd, a), oc, ec, cmp)
            oracle[f"{a}/{oc}/{ec}/{cmp}"] = (
                str(avg), [(m, n, br, str(v)) for (m, n, br), v in per_case.items()]
            )
    return {"oracle": oracle}


def run_worker(root: Path, env: dict, job: dict) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py"))],
        input=json.dumps(job), stdout=subprocess.PIPE, text=True,
        cwd=root, env=env, timeout=job["seconds"] + 120,
    )
    if done.returncode != 0:
        raise SystemExit(f"worker exited with {done.returncode}")
    return json.loads(done.stdout)


def importtime(root: Path, env: dict, warmup: str) -> str:
    """``python -X importtime`` report of one fresh interpreter's warm-up."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", warmup],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          cwd=root, env=env, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"warm-up failed:\n{done.stderr}")
    return done.stderr


def p90(samples: list[float]) -> float:
    if len(samples) == 1:  # a very short run
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def timings(cycles: list[list[float]], calibrations: list[float], reference_s: float,
            units: int, setups: list[list[float]]) -> dict:
    """Set-up time, throughput and call-time percentiles of an untraced run.

    The shared host runs up to ~1.9x slower for seconds to minutes at a
    time, whole runs included.  So call times are scaled to a reference
    host speed: each is multiplied by ``reference_s`` over the time of a
    calibration that never touches the package, taken around it.  That is
    the calibration loop for in-process calls and the reference process for
    CLI calls.  For a cycle the calibration time is the median of the four
    nearest (two before it, two after), which damps its own noise.  A
    set-up probe times the loop itself, just before its import, and is
    scaled by LOOP_REFERENCE_S over it.  A change to the program moves the
    scaled times as it moves the raw ones."""
    def scale(k: int) -> float:
        return reference_s / statistics.median(calibrations[max(0, k - 1):k + 3])

    calls = [t * scale(k) for k, cycle in enumerate(cycles) for t in cycle]
    return {
        "setup_s": statistics.median(t * LOOP_REFERENCE_S / loop for t, loop in setups),
        "throughput_per_s": units / sum(calls),
        "call_s_p50": statistics.median(calls),
        "call_s_p90": p90(calls),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    needed = [root / "src" / "qdialogue" / "__init__.py"]
    if args.workload == "exact-grid":
        needed.append(root / "tests" / "oracle.py")
    if args.workload == "cli-calls":
        needed.append(root / "tests" / "golden")
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"error: run from the root of a qdialogue checkout; missing {missing}",
              file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k != "QDLG_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    env.update(SINGLE_THREAD_ENV)
    job = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "root": str(root),
        "refs": references(root, args.workload),
    }
    # the worker is the first child reaped, so the children's peak RSS is its
    result = run_worker(root, env, job)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
             f"  trace {args.trace}"]
    if args.trace:
        splits = [import_split(importtime(root, env, WARMUP[args.workload]))
                  for _ in range(IMPORTTIME_REPEATS)]
        metrics = dict(result["layers"])
        for part in ("numpy", "qdialogue", "other"):
            metrics[f"cli.import_{part}_s"] = statistics.median(s[part] for s in splits)
        units_of = PER_LAYER
    else:
        cycles = result["cycles"]
        reference_s = (REFERENCE_PROCESS_S if args.workload == "cli-calls"
                       else LOOP_REFERENCE_S)
        metrics = {
            **timings(cycles, result["calibrations"], reference_s, result["units"],
                      result["setups"]),
            "peak_rss_mb": peak_rss_mb,
        }
        units_of = END_TO_END
        n = sum(map(len, cycles))
        lines.append(f"  {THROUGHPUT_NAME[args.workload]} = "
                     f"{metrics['throughput_per_s']:.6g} 1/s  ({result['units']} units"
                     f" in {n} calls, {len(cycles)} cycles)")
        lines.append(f"  call samples n = {n}, {n - int(0.9 * n)} beyond p90;"
                     f" setup samples n = {len(result['setups'])}")
        raw_calls = [t for cycle in cycles for t in cycle]
        calibration = "reference process" if args.workload == "cli-calls" else "loop"
        lines.append(f"  unscaled: calibration {calibration} median "
                     f"{statistics.median(result['calibrations']):.4g} s (reference "
                     f"{reference_s:g} s), setup loop median "
                     f"{statistics.median(loop for _, loop in result['setups']):.4g} s"
                     f" (reference {LOOP_REFERENCE_S:g} s), setup median "
                     f"{statistics.median(t for t, _ in result['setups']):.4g} s,"
                     f" call p50 {statistics.median(raw_calls):.4g} s,"
                     f" call p90 {p90(raw_calls):.4g} s")
    if set(metrics) != set(units_of):
        raise SystemExit(f"metric set mismatch: {sorted(set(metrics) ^ set(units_of))}")

    for name, value in metrics.items():
        lines.append(f"  {name} = {value:.6g} {units_of[name]}")
    attempted, failed = result["attempted"], result["failed"]
    lines.append(f"  error_rate = {failed}/{attempted} = {failed / attempted:.6g}")
    print("\n".join(lines))
    for message in result["failures"]:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units_of[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
