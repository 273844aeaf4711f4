"""Workload definitions shared by the benchmark entry point (run.py) and its worker.

Everything here is plain data or takes the ``qdialogue`` package as an
argument, so importing this module never imports the package: the CLI
worker stays light and its children alone set the measured memory.
"""

from __future__ import annotations

import inspect
import random
from fractions import Fraction
from itertools import product

WORKLOADS = ("mc-control", "session-mixed", "exact-grid", "cli-calls")

#: rounds per ``monte_carlo`` call on mc-control: the ``mc`` subcommand's
#: default ``--rounds``.  Criterion 6 calls ``monte_carlo`` with 100 000 and
#: 10^6 rounds; at this commit a call costs about 40 us plus 12 us per round,
#: so the per-round cost is the same at all three sizes (see README.md).
#: mc-control draws one seed per attack and repeats each call throughout the
#: run, so each distinct estimate gets one SE_BOUND check and every repeat
#: must be identical.
MC_ROUNDS = 10_000
#: rounds per ``run_session`` call on session-mixed, and of the seeded ``mc``
#: subcommand on cli-calls: the size of criterion 8's ``mc --rounds 2000``
SESSION_ROUNDS = 2000
SESSION_CONTROL_FRACTION = 0.5
CLI_MC_ROUNDS = SESSION_ROUNDS
#: tolerance of every Monte Carlo check, in standard errors of the exact value.
#: A run makes up to 16 distinct tests and the benchmark is run many times;
#: at 4 SE (p = 6e-5 per test) about one run in a thousand gives a false
#: alarm, at 5 SE about one in 100 000.
SE_BOUND = 5.0
#: fresh interpreters timed for ``setup_s``, spread over an untraced run
SETUP_PROBES = 12
#: iterations of the calibration loop timed next to every in-process cycle
#: and in every set-up probe
CALIBRATION_ITERATIONS = 40_000
#: in-process timings are scaled to the host speed at which that loop takes
#: LOOP_REFERENCE_S (README.md)
LOOP_REFERENCE_S = 0.020
#: reference process of cli-calls: a fresh interpreter that imports what the
#: CLI imports apart from the package.  It is timed REFERENCE_REPEATS times
#: before the first cycle and after each one, and CLI times are scaled to the
#: host speed at which it takes REFERENCE_PROCESS_S (README.md).
REFERENCE_PROCESS = "import argparse, csv, fractions, json, numpy"
REFERENCE_REPEATS = 3
REFERENCE_PROCESS_S = 0.15
#: environment of every process the benchmark starts: numpy's OpenBLAS
#: otherwise starts a second thread at import, which spins on a core of
#: this 2-core host and made CLI times spread by a third between runs
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}

#: the criterion-6 attack mix of mc-control and session-mixed
MC_ATTACKS = (
    "intercept-b2a",
    "intercept-a2b",
    "disturb-a2b-uniform4",
    "disturb-a2b-coin-iz",
)

#: (outcome labels, expected labels, comparison) pairings of session-mixed
SESSION_PAIRINGS = (("oe", "oe", "converted"), ("pp", "oe", "strict-paper"))

#: the 15 strategies of exact-grid: passive, intercept on both routes, and
#: disturb on both routes with every selection rule
GRID_ATTACKS = ("none", "intercept-b2a", "intercept-a2b") + tuple(
    f"disturb-{route}-{sel}"
    for route in ("b2a", "a2b")
    for sel in ("00", "01", "10", "11", "uniform4", "coin-iz")
)

#: the 8 convention/comparison combinations of exact-grid
GRID_PAIRINGS = tuple(
    product(("oe", "pp"), ("oe", "pp"), ("converted", "strict-paper"))
)

ALL_BIT_TUPLES = tuple(product((0, 1), repeat=4))

#: CLI invocations whose stdout has a golden file under tests/golden/
CLI_GOLDEN = (
    (("exact", "--attack", "disturb", "--selection", "uniform4"),
     "exact_disturb_uniform4.json"),
    (("exact", "--attack", "intercept", "--format", "csv"), "exact_intercept.csv"),
    (("table",), "table.txt"),
    (("round", "--bits", "0111", "--attack", "intercept", "--mode", "control",
      "--seed", "3"), "round_intercept.json"),
    (("compare",), "compare.json"),
    (("mc", "--attack", "disturb", "--selection", "coin-iz", "--rounds", "400",
      "--seed", "11", "--control-fraction", "0.5"), "mc_disturb_coiniz.json"),
)

#: the console-script entry point, run with ``python -c``
CLI_ENTRY = "from qdialogue.cli import main; main()"

#: per workload, the warm-up that ``setup_s`` times in a fresh interpreter
WARMUP = {
    "mc-control": (
        "import qdialogue as qd\n"
        "qd.monte_carlo(qd.InterceptMeasure(), n=64, seed=0)\n"
    ),
    "session-mixed": (
        "import qdialogue as qd\n"
        "qd.run_session(64, 0.5, qd.RandomSource(0), qd.InterceptMeasure())\n"
    ),
    "exact-grid": (
        "import qdialogue as qd\n"
        "qd.enumerate_exact(qd.InterceptMeasure())\n"
    ),
    "cli-calls": (
        "import contextlib, io\n"
        "from qdialogue.cli import run_cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    run_cli(['exact'])\n"
    ),
}


def calibration_loop(iterations: int) -> int:
    """Fixed pure-Python work that uses no module at all, so that a set-up
    probe can run it before importing anything: complex arithmetic, a
    linear congruential generator and dict stores."""
    x = 12345
    acc = 0j
    table = {}
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        z = complex(x / 2147483648.0, i & 7) * (0.5 - 0.5j)
        acc += z
        table[i & 63] = (z.real > 0.25, acc)
    return len(table)


def probe_code(workload: str) -> str:
    """Program of a set-up probe: in a fresh interpreter, time the
    calibration loop, then the package import and the workload's warm-up,
    and print both times."""
    return (
        inspect.getsource(calibration_loop)
        + "import time\n"
        + "start = time.perf_counter()\n"
        + f"calibration_loop({CALIBRATION_ITERATIONS})\n"
        + "loop = time.perf_counter() - start\n"
        + "start = time.perf_counter()\n"
        + WARMUP[workload]
        + "print(time.perf_counter() - start, loop)\n"
    )


def build_attack(qd, name: str):
    """The strategy object named ``none``, ``intercept-<route>`` or
    ``disturb-<route>-<uv|uniform4|coin-iz>``."""
    if name == "none":
        return qd.Passive()
    kind, route, *sel = name.split("-")
    if kind == "intercept":
        return qd.InterceptMeasure(qd.Route(route))
    sel = "-".join(sel)
    if sel == "uniform4":
        selection = qd.UniformAll4()
    elif sel == "coin-iz":
        selection = qd.CoinIZ()
    else:
        selection = qd.Fixed(int(sel[0]), int(sel[1]))
    return qd.DisturbPauli(qd.Route(route), selection)


def cli_attack_flags(name: str) -> list[str]:
    """The ``qdialogue`` flags that select the strategy ``name``."""
    if name == "none":
        return ["--attack", "none"]
    kind, route, *sel = name.split("-")
    if kind == "intercept":
        return ["--attack", "intercept", "--route", route]
    sel = "-".join(sel)
    if sel in ("uniform4", "coin-iz"):
        return ["--attack", "disturb", "--route", route, "--selection", sel]
    return ["--attack", "disturb", "--route", route, "--selection", "fixed",
            "--uv", sel]


def convention(qd, label: str):
    return {"oe": qd.Convention.OPERATOR_ENCODING,
            "pp": qd.Convention.PARITY_PHASE}[label]


def mc_inputs(seed: int) -> list[tuple[str, int]]:
    """(attack, monte_carlo seed) pairs of mc-control, one per cycle in turn."""
    rng = random.Random(f"mc-control:{seed}")
    return [(attack, rng.getrandbits(48)) for attack in MC_ATTACKS]


def session_inputs(seed: int) -> list[tuple[str, tuple[str, str, str], int]]:
    """(attack, pairing, bit-source seed) triples of session-mixed, one per
    cycle in turn."""
    rng = random.Random(f"session-mixed:{seed}")
    return [(attack, pairing, rng.getrandbits(48))
            for attack in MC_ATTACKS for pairing in SESSION_PAIRINGS]


def cli_invocations(seed: int) -> list[tuple[tuple[str, ...], str | None]]:
    """(argv, golden file or None) of one cli-calls cycle: the goldens, a
    seeded ``mc`` and ``round``, and ``exact`` for each attack under
    seed-chosen conventions."""
    rng = random.Random(f"cli-calls:{seed}")
    calls = list(CLI_GOLDEN)
    calls.append((("mc", "--attack", "intercept", "--rounds", str(CLI_MC_ROUNDS),
                   "--seed", str(rng.getrandbits(32))), None))
    bits = "".join(rng.choice("01") for _ in range(4))
    calls.append((("round", "--bits", bits,
                   *cli_attack_flags(rng.choice(MC_ATTACKS)),
                   "--mode", rng.choice(("message", "control")),
                   "--seed", str(rng.getrandbits(32))), None))
    uv = rng.choice(("00", "01", "10", "11"))
    for attack in ("none", "intercept-b2a", "intercept-a2b",
                   "disturb-a2b-uniform4", "disturb-b2a-coin-iz",
                   f"disturb-a2b-{uv}"):
        oc, ec, cmp = rng.choice(GRID_PAIRINGS)
        calls.append((("exact", *cli_attack_flags(attack),
                       "--outcome-labels", oc, "--expected-labels", ec,
                       "--compare", cmp), None))
    return calls


def within_se(observed: float, exact: Fraction, n: int) -> bool:
    """True iff a frequency over n trials lies within SE_BOUND standard
    errors of the exact probability; with zero variance it must be equal."""
    p = float(exact)
    se = (p * (1.0 - p) / n) ** 0.5
    if se == 0.0:
        return observed == p
    return abs(observed - p) <= SE_BOUND * se


def consistent_anchor(attack: str, oc: str, ec: str, cmp: str) -> Fraction | None:
    """The known average detection probability of a grid configuration, or
    None where no closed-form anchor is known (the oracle still covers it).

    Anchors: 3/4 for the strict table (pp outcome labels scored strictly
    against oe expectations under intercept), and under consistent
    bookkeeping 1/2 for intercept, 3/4 for disturb uniform4, 1 - [uv=00]
    for disturb fixed and 0 for no attack.
    """
    if attack.startswith("intercept") and (oc, ec, cmp) == ("pp", "oe", "strict-paper"):
        return Fraction(3, 4)
    if cmp != "converted" and oc != ec:
        return None
    if attack == "none":
        return Fraction(0)
    if attack.startswith("intercept"):
        return Fraction(1, 2)
    sel = attack.split("-", 2)[2]
    if sel == "uniform4":
        return Fraction(3, 4)
    if sel == "coin-iz":
        return None
    return Fraction(0 if sel == "00" else 1)
