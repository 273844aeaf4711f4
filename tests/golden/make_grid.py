"""The canonical grid: every engine's output over one fixed grid of
configurations, one JSON line per engine and configuration.

``tests/test_grid.py`` compares the engines' output with the committed
``tests/golden/grid.jsonl`` and names the first configuration that changed.
Tier-1 never writes the file.  A change that alters output on purpose
regenerates it, and logs in CHANGES.md each changed engine and why::

    PYTHONPATH=src python tests/golden/make_grid.py

The script imports nothing but the standard library and the package; it
needs no numpy.  Each line is ``{"engine": ..., "config": {...}, ...}``,
the configuration first and its values after, written canonically rather
than as reprs, so that a changed line reads as numbers:

* a ``Fraction`` as ``"p/q"``, a float by ``float.hex``, an enum member by
  its value, a strategy as the CLI's attack echo;
* a generator's state after a call as the SHA-256 of the integers of
  ``getstate()``;
* ``enumerate_exact``'s line gives the report of no case order, and the
  ``per_case`` of each other order of ``CASE_ORDERS``, which orders only it;
* a ``run_round`` line, one strategy, bookkeeping, mode and seed, gives per
  bit tuple (i, j, k, l), in ``ALL_BIT_TUPLES`` order, ``[Eve's record,
  outcome label kl + convention, Bell probability, result]``: the record
  as ``[branch, t]`` for a measurement and ``[u, v]`` for a Pauli, the
  result ``detected`` in a control round and the decoded bits i, j, k, l in
  a message round.  Its ``states`` is the SHA-256 of the ``float.hex``
  amplitudes of the five states of each of its 16 transcripts.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import qdialogue as qd
from qdialogue.cli import _attack_echo
from qdialogue.exactstate import ALL_BIT_TUPLES
from qdialogue.model import (
    CoinIZ,
    DisturbPauli,
    Fixed,
    InterceptMeasure,
    Mode,
    Passive,
    RandomSource,
    RoundConfig,
    Route,
    UniformAll4,
    bookkeeping,
)

GRID_PATH = Path(__file__).with_name("grid.jsonl")

STRATEGIES = [Passive(), InterceptMeasure(Route.B_TO_A), InterceptMeasure(Route.A_TO_B)] + [
    DisturbPauli(route, selection)
    for route in Route
    for selection in (Fixed(0, 0), Fixed(0, 1), Fixed(1, 0), Fixed(1, 1),
                      UniformAll4(), CoinIZ())
]
#: every bookkeeping: outcome convention, expectation convention, comparison
BOOKKEEPINGS = [bookkeeping(*values) for values in
                product(("oe", "pp"), ("oe", "pp"), ("strict-paper", "converted"))]
#: the bookkeepings of the sessions and rounds: the self-consistent default
#: and the published case table's
ROUND_BOOKKEEPINGS = [bookkeeping("oe", "oe", "converted"),
                      bookkeeping("pp", "oe", "strict-paper")]
#: ``enumerate_exact``'s case orders: none given, reversed, and stride 5
CASE_ORDERS = (None, ALL_BIT_TUPLES[::-1],
               tuple(ALL_BIT_TUPLES[5 * place % 16] for place in range(16)))
MC_RUNS = ((1, 0), (37, 7), (3001, 2**40 + 3))  # (n, seed)
SESSION_FRACTIONS = (0.0, 1 / 256, 0.3, 0.5, 1.0)
SESSION_ROUNDS = (1, 2049)
SESSION_SEED = 11
ROUND_SEEDS = (0, 1, 2)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _names(conventions) -> list[str]:
    return [member.value for member in conventions]


def _generator_digest(source: RandomSource) -> str:
    version, words, gauss = source._rng.getstate()
    return hashlib.sha256(repr((version, *words, gauss)).encode()).hexdigest()


def _detection(report) -> dict:
    return {
        "per_case": [[c.m, c.n, c.eve_branch, _frac(p)] for c, p in report.per_case.items()],
        "branch_averages": [[branch, _frac(p)] for branch, p in report.branch_averages.items()],
        "average": _frac(report.average),
        "per_selection": None if report.per_selection is None else [
            [*uv, _frac(p)] for uv, p in report.per_selection.items()],
    }


def _exact_lines():
    for attack, conventions in product(STRATEGIES, BOOKKEEPINGS):
        config = {"attack": _attack_echo(attack), "bookkeeping": _names(conventions)}
        orders = iter(CASE_ORDERS)
        values = _detection(qd.enumerate_exact(attack, *conventions, case_order=next(orders)))
        # a case order orders per_case only
        values["per_case_in_order"] = [
            _detection(qd.enumerate_exact(attack, *conventions, case_order=order))["per_case"]
            for order in orders]
        yield "enumerate_exact", config, values
    yield "paper_case_table", {}, _detection(qd.paper_case_table())
    claims = qd.compare_claims()
    yield "compare_claims", {}, {
        name: _frac(getattr(claims, name))
        for name in ("paper_claim", "cai_claim", "strict_paper_average", "consistent_value")
    } | {"explanation": claims.explanation}
    for attack in STRATEGIES:
        report = qd.message_error_rate(attack)
        yield "message_error_rate", {"attack": _attack_echo(attack)}, {
            "alice_to_bob": _frac(report.alice_to_bob),
            "bob_to_alice": _frac(report.bob_to_alice),
            "per_bit": [[name, _frac(p)] for name, p in report.per_bit.items()],
        }


def _sampler_lines():
    for attack, (oc, ec, comparison), fraction in product(
            STRATEGIES, ROUND_BOOKKEEPINGS, SESSION_FRACTIONS):
        runs = []
        for n in SESSION_ROUNDS:
            source = RandomSource(SESSION_SEED)
            s = qd.run_session(n, fraction, source, attack, (oc, ec), comparison)
            runs.append([s.n_rounds, s.control_rounds, s.message_rounds, s.detections,
                         s.alice_pair_errors, s.bob_pair_errors, s.alice_bit_errors,
                         s.bob_bit_errors, s.detection_rate.hex(),
                         s.survival_probability.hex(), s.bit_seed,
                         _generator_digest(source)])
        yield "run_session", {"attack": _attack_echo(attack),
                              "bookkeeping": _names((oc, ec, comparison)),
                              "control_fraction": fraction.hex(),
                              "seed": SESSION_SEED}, {
            "runs": runs, "generator_id": s.generator_id}
    for attack, conventions in product(STRATEGIES, BOOKKEEPINGS):
        runs = []
        for n, seed in MC_RUNS:
            estimate = qd.monte_carlo(attack, *conventions, n=n, seed=seed)
            runs.append([estimate.n, estimate.seed, estimate.mean.hex(),
                         estimate.standard_error.hex()])
        yield "monte_carlo", {"attack": _attack_echo(attack),
                              "bookkeeping": _names(conventions)}, {
            "runs": runs, "generator_id": estimate.generator_id}


def _round_lines():
    for attack, conventions, mode, seed in product(
            STRATEGIES, ROUND_BOOKKEEPINGS, Mode, ROUND_SEEDS):
        rounds, states = [], hashlib.sha256()
        for i, j, k, l in ALL_BIT_TUPLES:
            t = qd.run_round(RoundConfig((k, l), (i, j), mode, *conventions), attack,
                             RandomSource(seed))
            record = t.eve_record and list(t.eve_record._values(t.eve_record))
            label = t.bell_outcome
            rounds.append([record,
                           f"{label.k}{label.l}{label.convention.value}",
                           t.bell_probability.hex(),
                           t.detected if mode is Mode.CONTROL else
                           [*t.decoded_alice_bits, *t.decoded_bob_bits]])
            for state in t.snapshots():
                states.update(" ".join(f"{a.real.hex()} {a.imag.hex()}"
                                       for a in state.amp).encode() + b"\n")
        yield "run_round", {"attack": _attack_echo(attack),
                            "bookkeeping": _names(conventions), "mode": mode.value,
                            "seed": seed}, {"rounds": rounds, "states": states.hexdigest()}


def grid_lines():
    """The grid's lines, each without its newline, in the file's order."""
    for engine, config, values in (*_exact_lines(), *_sampler_lines(), *_round_lines()):
        yield json.dumps({"engine": engine, "config": config, **values},
                         separators=(",", ":"))


def main() -> int:
    GRID_PATH.write_text("".join(line + "\n" for line in grid_lines()))
    print(f"wrote {GRID_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
