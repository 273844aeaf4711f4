"""Load generator of one benchmark run, started by ``run.py`` in a fresh
process so that its peak memory is the workload's alone.

Reads a job (workload, seed, seconds, trace, references) as JSON on stdin,
runs whole cycles of the workload's operations until the time is up, checks
every output, and writes the timings, the failures and, in a traced run,
the per-layer counters as JSON on stdout.

The load is a closed loop from one client: one operation at a time, no
threads, CLI subprocesses launched one after another.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

from tracer import REPORTED_SPANS, Tracer
from workloads import (
    ALL_BIT_TUPLES,
    CALIBRATION_ITERATIONS,
    CLI_ENTRY,
    GRID_ATTACKS,
    GRID_PAIRINGS,
    MC_ATTACKS,
    MC_ROUNDS,
    REFERENCE_PROCESS,
    REFERENCE_REPEATS,
    SESSION_CONTROL_FRACTION,
    SESSION_ROUNDS,
    SETUP_PROBES,
    build_attack,
    calibration_loop,
    cli_invocations,
    consistent_anchor,
    convention,
    mc_inputs,
    probe_code,
    session_inputs,
    within_se,
)

MAX_FAILURE_MESSAGES = 20


class Op(NamedTuple):
    """One public call: ``call`` is timed, ``check`` returns an error or None."""

    tag: str | None  # attack whose draws and rounds this call accounts
    units: int  # rounds, reports or invocations the call completes
    call: Callable[[], object]
    check: Callable[[object], str | None]


class Recorder:
    """Call times (one list per cycle), completed units and failures of
    the operations it runs.  With a tracer, each operation's tag is handed
    to it before the call."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.cycles: list[list[float]] = []
        self.units = 0
        self.tag_units: dict[str | None, int] = {}
        self.failures: list[str] = []

    @property
    def calls(self) -> int:
        return sum(map(len, self.cycles))

    @property
    def seconds(self) -> float:
        return sum(map(sum, self.cycles))

    def run_cycle(self, ops: list[Op]) -> None:
        self.cycles.append([self._run(op) for op in ops])

    def _run(self, op: Op) -> float:
        if self.tracer is not None:
            self.tracer.tag = op.tag
        start = perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{op.tag}: raised {exc!r}")
            return perf_counter() - start
        elapsed = perf_counter() - start
        self.units += op.units
        self.tag_units[op.tag] = self.tag_units.get(op.tag, 0) + op.units
        error = op.check(out)
        if error is not None:
            self.failures.append(error)
        return elapsed


def repeat_check(first: dict, key, check_first: Callable[[object], str | None]):
    """Check the first output of ``key`` with ``check_first``; every later
    output of the same call must equal it."""

    def check(out):
        if key in first:
            return None if out == first[key] else f"{key}: repeat differs from first"
        first[key] = out
        return check_first(out)

    return check


def import_package(root: Path):
    import qdialogue

    src = (root / "src").resolve()
    if src not in Path(qdialogue.__file__).resolve().parents:
        raise SystemExit(f"qdialogue imported from {qdialogue.__file__}, not {src}")
    return qdialogue


def mc_cycle(qd, job: dict):
    """One ``monte_carlo`` call per cycle, so that the calibration loop runs
    next to each; consecutive cycles take the attacks in turn."""
    exact = {a: Fraction(v) for a, v in job["refs"]["detect"].items()}
    first: dict = {}
    ops = []
    for name, seed in mc_inputs(job["seed"]):
        attack = build_attack(qd, name)

        def check_first(est, name=name, seed=seed):
            if (est.n, est.seed) != (MC_ROUNDS, seed):
                return f"monte_carlo {name}: echoed n/seed {est.n}/{est.seed}"
            if not within_se(est.mean, exact[name], MC_ROUNDS):
                return f"monte_carlo {name} seed {seed}: mean {est.mean} vs exact {exact[name]}"
            return None

        ops.append(Op(
            name, MC_ROUNDS,
            lambda attack=attack, seed=seed: qd.monte_carlo(attack, n=MC_ROUNDS, seed=seed),
            repeat_check(first, (name, seed), check_first),
        ))
    return lambda index: [ops[index % len(ops)]]


def session_cycle(qd, job: dict):
    """One ``run_session`` call per cycle, as in ``mc_cycle``."""
    detect = {k: Fraction(v) for k, v in job["refs"]["detect"].items()}
    message = {a: tuple(map(Fraction, v)) for a, v in job["refs"]["message"].items()}
    first: dict = {}
    ops = []
    for name, (oc, ec, cmp), seed in session_inputs(job["seed"]):
        attack = build_attack(qd, name)
        key = f"{name}/{oc}/{ec}/{cmp}"

        def check_first(stats, name=name, key=key, oe=(oc, ec) == ("oe", "oe")):
            if stats.control_rounds + stats.message_rounds != SESSION_ROUNDS:
                return f"run_session {key}: {stats.n_rounds} rounds"
            if not within_se(stats.detections / stats.control_rounds, detect[key],
                             stats.control_rounds):
                return f"run_session {key}: detection {stats.detection_rate} vs {detect[key]}"
            if oe:
                to_bob, to_alice = message[name]
                m = stats.message_rounds
                if not (within_se(stats.alice_pair_errors / m, to_bob, m)
                        and within_se(stats.bob_pair_errors / m, to_alice, m)):
                    return (f"run_session {key}: pair errors {stats.alice_pair_errors}, "
                            f"{stats.bob_pair_errors} of {m} vs {to_bob}, {to_alice}")
            return None

        ops.append(Op(
            name, SESSION_ROUNDS,
            lambda attack=attack, seed=seed, conv=(convention(qd, oc), convention(qd, ec)),
            cmp=cmp: qd.run_session(SESSION_ROUNDS, SESSION_CONTROL_FRACTION,
                                    qd.RandomSource(seed), attack,
                                    conventions=conv, comparison=cmp),
            repeat_check(first, key, check_first),
        ))
    return lambda index: [ops[index % len(ops)]]


def exact_cycle(qd, job: dict):
    oracle = {
        key: (Fraction(avg), {(m, n, br): Fraction(v) for m, n, br, v in per_case})
        for key, (avg, per_case) in job["refs"]["oracle"].items()
    }
    attacks = {name: build_attack(qd, name) for name in GRID_ATTACKS}
    first: dict = {}
    table_case = {(0, 0): Fraction(1), (0, 1): Fraction(1),
                  (1, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}

    def check_oracle(key, report):
        avg, per_case = oracle[key]
        mine = {(c.m, c.n, c.eve_branch): v for c, v in report.per_case.items()}
        if report.average != avg or mine != per_case:
            return f"enumerate_exact {key}: average {report.average}, oracle {avg}"
        return None

    def check_report(key, anchor):
        def check(report):
            if anchor is not None and report.average != anchor:
                return f"enumerate_exact {key}: average {report.average}, anchor {anchor}"
            return check_oracle(key, report)
        return check

    def check_table(report):
        if report.average != Fraction(3, 4) or any(
            v != table_case[(c.m, c.n)] for c, v in report.per_case.items()
        ):
            return f"paper_case_table: average {report.average}, not the 1, 1, 1/2, 1/2 table"
        return check_oracle("intercept-b2a/pp/oe/strict-paper", report)

    def check_claims(claims):
        got = (claims.paper_claim, claims.cai_claim,
               claims.strict_paper_average, claims.consistent_value)
        want = (Fraction(3, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1, 2))
        return None if got == want else f"compare_claims: {got}"

    def check_message(name):
        def check(report):
            if name == "none" and any(
                (report.alice_to_bob, report.bob_to_alice, *report.per_bit.values())
            ):
                return "message_error_rate none: nonzero error without an attack"
            return None
        return check

    def cycle(index: int) -> list[Op]:
        rng = random.Random(f"exact-grid:{job['seed']}:{index}")
        ops = []
        for name in GRID_ATTACKS:
            for oc, ec, cmp in GRID_PAIRINGS:
                key = f"{name}/{oc}/{ec}/{cmp}"
                args = (attacks[name], convention(qd, oc), convention(qd, ec), cmp)
                order = rng.sample(ALL_BIT_TUPLES, len(ALL_BIT_TUPLES))
                ops.append(Op(
                    None, 1,
                    lambda args=args, order=order:
                        qd.enumerate_exact(*args, case_order=order),
                    repeat_check(first, key,
                                 check_report(key, consistent_anchor(name, oc, ec, cmp))),
                ))
            ops.append(Op(None, 1, lambda a=attacks[name]: qd.message_error_rate(a),
                          repeat_check(first, f"message/{name}", check_message(name))))
        ops.append(Op(None, 1, lambda: qd.paper_case_table(),
                      repeat_check(first, "paper_case_table", check_table)))
        ops.append(Op(None, 1, lambda: qd.compare_claims(),
                      repeat_check(first, "compare_claims", check_claims)))
        rng.shuffle(ops)
        return ops

    return cycle


class CliCalls:
    """cli-calls: fresh ``qdialogue`` processes, or ``run_cli`` in-process
    for the traced half of a traced run."""

    def __init__(self, job: dict) -> None:
        self.root = Path(job["root"])
        self.seed = job["seed"]
        self.calls = cli_invocations(self.seed)
        golden = self.root / "tests" / "golden"
        self.expected = {argv: (golden / name).read_bytes()
                         for argv, name in self.calls if name is not None}
        self.cli = None

    def _check(self, argv):
        def check(result):
            code, stdout = result
            if code != 0:
                return f"qdialogue {' '.join(argv)}: exit {code}"
            want = self.expected.setdefault(argv, stdout)
            return None if stdout == want else f"qdialogue {' '.join(argv)}: stdout differs"
        return check

    def _subprocess(self, argv):
        done = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv],
                              capture_output=True, cwd=self.root, timeout=120)
        return done.returncode, done.stdout

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.run_cli(argv)
        return code, out.getvalue().encode()

    def reference_time(self) -> float:
        """Median wall time of REFERENCE_REPEATS reference processes: the
        host's speed for starting an interpreter and importing numpy and
        the standard library at this moment.  No package module is loaded."""
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", REFERENCE_PROCESS], check=True,
                           capture_output=True, cwd=self.root, timeout=120)
            times.append(perf_counter() - start)
        return statistics.median(times)

    def cycle(self, index: int, in_process: bool = False) -> list[Op]:
        calls = [argv for argv, _ in self.calls]
        random.Random(f"cli-calls:{self.seed}:{index}").shuffle(calls)
        run = self._in_process if in_process else self._subprocess
        return [Op(None, 1, lambda argv=argv: run(argv), self._check(argv))
                for argv in calls]


def setup_probe(workload: str) -> tuple[float, float]:
    """(import and warm-up seconds, calibration loop seconds) of a fresh
    interpreter in the worker's directory, the root of the checkout.  Both
    are timed inside it, back to back, so they share one host speed."""
    done = subprocess.run([sys.executable, "-c", probe_code(workload)], check=True,
                          capture_output=True, text=True, timeout=120)
    setup, loop = map(float, done.stdout.split())
    return setup, loop


def loop_time() -> float:
    """Time of the calibration loop: the host's speed for in-process work
    at this moment."""
    start = perf_counter()
    calibration_loop(CALIBRATION_ITERATIONS)
    return perf_counter() - start


def drive(cycle, seconds: float, calibrate=None, tracer: Tracer | None = None,
          probe=None):
    """Run whole cycles until ``seconds`` have passed.  With a tracer, each
    untraced cycle is followed by the same cycle traced.  With ``probe``,
    SETUP_PROBES set-up probes are spread evenly over the run, each taken
    between cycles once it is due.

    ``calibrate``, if given, runs before the first untraced cycle and after
    each one.  Returns the two recorders, the calibration times and the
    probes' results."""
    plain, traced = Recorder(), Recorder(tracer)
    calibrations = [calibrate()] if calibrate else []
    setups: list[tuple[float, float]] = []

    start = perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        plain.run_cycle(cycle(index))
        if calibrate:
            calibrations.append(calibrate())
        while (probe is not None and len(setups) < SETUP_PROBES
               and perf_counter() >= start + len(setups) * seconds / SETUP_PROBES):
            setups.append(probe())
        if tracer is not None:
            tracer.install()
            try:
                traced.run_cycle(cycle(index))
            finally:
                tracer.uninstall()
        index += 1
        if perf_counter() >= deadline:
            while probe is not None and len(setups) < SETUP_PROBES:
                setups.append(probe())
            return plain, traced, calibrations, setups


def layer_metrics(tracer: Tracer, plain: Recorder, traced: Recorder,
                  process_s: float = 0.0) -> dict:
    metrics = {"cli.process_s": process_s}
    for name in REPORTED_SPANS:
        metrics[f"{name}.calls"] = tracer.calls(name)
        metrics[f"{name}.self_s"] = tracer.self_s(name)
    for attack in MC_ATTACKS:
        rounds = traced.tag_units.get(attack, 0)
        metrics[f"qcore.draws_per_round.{attack}"] = (
            tracer.draws[attack] / rounds if rounds else 0
        )
    eve_calls = tracer.calls("attacks.apply_eve")
    metrics["attacks.apply_eve.useful_ratio"] = (
        tracer.counts["attacks.apply_eve.useful"] / eve_calls if eve_calls else 0
    )
    metrics["protocol.RoundConfig.calls"] = tracer.counts["protocol.RoundConfig"]
    reports = (tracer.calls("analysis.enumerate_exact")
               + tracer.calls("analysis.message_error_rate"))
    metrics["exactstate.leaves_per_report"] = (
        tracer.calls("exactstate.bell_weights_exact") / reports if reports else 0
    )
    metrics["trace.work_units"] = traced.units
    metrics["trace.overhead_ratio"] = traced.seconds / plain.seconds
    return metrics


def main() -> None:
    job = json.load(sys.stdin)
    root, seconds, trace = Path(job["root"]), job["seconds"], job["trace"]
    tracer = Tracer() if trace else None
    out: dict = {}

    if job["workload"] == "cli-calls":
        cli = CliCalls(job)
        # subprocess calls, then (traced runs only) run_cli in-process
        share = seconds / 2 if trace else seconds
        timed, _, calibrations, setups = drive(
            cli.cycle, share, None if trace else cli.reference_time,
            probe=None if trace else lambda: setup_probe("cli-calls"))
        recorders = [timed]
        if trace:
            import_package(root)
            import qdialogue.cli

            cli.cli = qdialogue.cli
            plain, traced, _, _ = drive(lambda i: cli.cycle(i, in_process=True), share,
                                        tracer=tracer)
            recorders += [plain, traced]
            process_s = timed.seconds / timed.calls - plain.seconds / plain.calls
            out["layers"] = layer_metrics(tracer, plain, traced, process_s)
    else:
        qd = import_package(root)
        make = {"mc-control": mc_cycle, "session-mixed": session_cycle,
                "exact-grid": exact_cycle}[job["workload"]]
        timed, traced, calibrations, setups = drive(
            make(qd, job), seconds, loop_time, tracer,
            probe=None if trace else lambda: setup_probe(job["workload"]))
        recorders = [timed, traced]
        if trace:
            out["layers"] = layer_metrics(tracer, timed, traced)

    failures = [msg for rec in recorders for msg in rec.failures]
    out.update(
        cycles=timed.cycles,
        calibrations=calibrations,
        setups=setups,
        units=timed.units,
        attempted=sum(rec.calls for rec in recorders),
        failed=len(failures),
        failures=failures[:MAX_FAILURE_MESSAGES],
    )
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
