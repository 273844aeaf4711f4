"""Deterministic command-line front end.

Subcommands: ``exact`` (exact enumeration of one attack), ``table`` (the
published intercept-measure case table), ``mc`` (seeded Monte Carlo
session), ``round`` (single-round transcript dump), ``compare`` (the
side-by-side claims report).  Output goes to stdout as JSON (sorted keys),
CSV, or text; diagnostics go to stderr.  Exit codes: 0 success, 1 usage
error, 2 internal invariant violation.

Rationals are rendered as "p/q" strings and floats with six fixed decimal
places, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .analysis import DetectionReport, compare_claims, enumerate_exact, paper_case_table
from .model import (
    CoinIZ,
    Comparison,
    Convention,
    DisturbPauli,
    EveStrategy,
    Fixed,
    InterceptMeasure,
    InvariantError,
    Mode,
    Passive,
    RandomSource,
    Route,
    Selection,
    UniformAll4,
)
from .protocol import RoundConfig, run_round
from .sampling import run_session


class UsageError(Exception):
    """Bad command-line input; ``parser`` is the parser that rejected it,
    if argparse did."""

    def __init__(self, message: str, parser: argparse.ArgumentParser | None = None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message, self)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _flt(x: float) -> str:
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.6f}"


def _add_attack_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--attack", choices=("none", "intercept", "disturb"),
                   default="none")
    p.add_argument("--route", choices=[route.value for route in Route], default=None,
                   help="tap route (default: b2a for intercept, a2b for disturb)")
    p.add_argument("--selection", choices=[rule.rule for rule in Selection.__args__],
                   default=None, help="disturb only (default: uniform4)")
    p.add_argument("--uv", metavar="BB", default=None,
                   help="bits for --selection fixed, e.g. 11")


def _add_convention_flags(p: argparse.ArgumentParser) -> None:
    labels = [convention.value for convention in Convention]
    p.add_argument("--outcome-labels", choices=labels,
                   default=Convention.OPERATOR_ENCODING.value)
    p.add_argument("--expected-labels", choices=labels,
                   default=Convention.OPERATOR_ENCODING.value)
    p.add_argument("--compare", choices=[rule.value for rule in Comparison],
                   default=Comparison.CONVERTED.value, dest="comparison")


def _add_format_flag(p: argparse.ArgumentParser, choices=("json", "csv", "text")) -> None:
    p.add_argument("--format", choices=choices, default="json")


def _build_attack(args: argparse.Namespace) -> EveStrategy:
    if args.attack != "disturb" and (args.selection is not None
                                     or args.uv is not None):
        raise UsageError("--selection and --uv need --attack disturb")
    if args.attack == "none":
        if args.route is not None:
            raise UsageError("--route needs --attack intercept or disturb")
        return Passive()
    route = args.route
    if args.attack == "intercept":
        return InterceptMeasure(Route(route or "b2a"))
    if args.selection == "fixed":
        if args.uv is None or len(args.uv) != 2 or set(args.uv) - set("01"):
            raise UsageError("--selection fixed requires --uv BB with bits 0/1")
        selection = Fixed(int(args.uv[0]), int(args.uv[1]))
    elif args.uv is not None:
        raise UsageError("--uv needs --selection fixed")
    else:
        selection = CoinIZ() if args.selection == "coin-iz" else UniformAll4()
    return DisturbPauli(Route(route or "a2b"), selection)


def _fields(value) -> dict:
    """A value class instance's fields by name, in declaration order."""
    return {name: getattr(value, name) for name in value.__slots__}


def _attack_echo(attack: EveStrategy) -> dict:
    if isinstance(attack, Passive):
        return {"type": "none"}
    if isinstance(attack, InterceptMeasure):
        return {"type": "intercept", "route": attack.route.value}
    sel = attack.selection
    return {"type": "disturb", "route": attack.route.value,
            "selection": {"rule": sel.rule, **_fields(sel)}}


def _envelope(command: str, payload, conventions: tuple | None = None,
              seed: int | None = None) -> dict:
    env = {"tool_version": __version__, "command": command, "payload": payload}
    if conventions is not None:
        env["conventions"] = dict(zip(
            ("outcome_labels", "expected_labels", "comparison"), conventions
        ))
    if seed is not None:
        env["seed"] = seed
        env["generator_id"] = RandomSource.GENERATOR_ID
    return env


def _emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _report_rows(report: DetectionReport) -> list[dict]:
    rows = []
    for case in sorted(report.per_case, key=lambda c: (c.eve_branch, c.m, c.n)):
        d = report.per_case[case]
        rows.append({
            "branch": case.eve_branch,
            "m": case.m,
            "n": case.n,
            "J": case.parity,
            "case": case.roman(),
            "d": _frac(d),
        })
    return rows


def _convention_flags(args: argparse.Namespace) -> tuple[str, str, str]:
    return args.outcome_labels, args.expected_labels, args.comparison


def _emit_report(report: DetectionReport, fmt: str, command: str) -> None:
    if fmt == "json":
        payload = {
            "attack": _attack_echo(report.attack),
            "per_case": _report_rows(report),
            "branch_averages": {
                br: _frac(v) for br, v in report.branch_averages.items()
            },
            "average": _frac(report.average),
        }
        if report.per_selection is not None:
            payload["per_selection"] = {
                f"{u}{v}": _frac(d) for (u, v), d in report.per_selection.items()
            }
        conventions = (report.outcome_convention.value,
                       report.expectation_convention.value,
                       report.comparison.value)
        _emit_json(_envelope(command, payload, conventions))
    elif fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["branch", "m", "n", "J", "numerator", "denominator"])
        for row in _report_rows(report):
            num, den = row["d"].split("/")
            writer.writerow([row["branch"], row["m"], row["n"], row["J"], num, den])
    else:
        for row in _report_rows(report):
            print(f"({row['branch']},{row['case']}) d = {row['d']}")
        for br, v in sorted(report.branch_averages.items()):
            print(f"branch {br} average = {_frac(v)}")
        if report.per_selection is not None:
            for (u, v), d in report.per_selection.items():
                print(f"selection ({u},{v}) d = {_frac(d)}")
        print(f"average = {_frac(report.average)}")


def _cmd_exact(args: argparse.Namespace) -> int:
    attack = _build_attack(args)
    report = enumerate_exact(attack, args.outcome_labels, args.expected_labels,
                             args.comparison)
    _emit_report(report, args.format, "exact")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    _emit_report(paper_case_table(), args.format, "table")
    return 0


def _resolve_source(args: argparse.Namespace) -> RandomSource:
    """The random source seeded by --seed, else QDLG_SEED, else 0."""
    seed, origin = args.seed, "--seed"
    if seed is None:
        env, origin = os.environ.get("QDLG_SEED", "0"), "QDLG_SEED"
        try:
            seed = int(env)
        except ValueError as exc:
            raise UsageError(f"QDLG_SEED must be an integer, got {env!r}") from exc
    try:
        return RandomSource(seed)
    except ValueError as exc:
        raise UsageError(f"{origin}: {exc}") from exc


def _cmd_mc(args: argparse.Namespace) -> int:
    if args.rounds < 1:
        raise UsageError("--rounds must be >= 1")
    if not 0.0 <= args.control_fraction <= 1.0:
        raise UsageError("--control-fraction must be in [0, 1]")
    attack = _build_attack(args)
    bit_source = _resolve_source(args)
    seed = bit_source.seed
    stats = run_session(args.rounds, args.control_fraction, bit_source, attack,
                        (args.outcome_labels, args.expected_labels), args.comparison)
    payload = {
        "attack": _attack_echo(attack),
        "rounds": stats.n_rounds,
        "control_rounds": stats.control_rounds,
        "message_rounds": stats.message_rounds,
        "detections": stats.detections,
        "detection_mean": _flt(stats.detection_rate),
        "survival_probability": _flt(stats.survival_probability),
        "alice_pair_errors": stats.alice_pair_errors,
        "bob_pair_errors": stats.bob_pair_errors,
        "alice_bit_errors": list(stats.alice_bit_errors),
        "bob_bit_errors": list(stats.bob_bit_errors),
    }
    if args.format == "text":
        print(f"rounds = {stats.n_rounds} (control {stats.control_rounds}, "
              f"message {stats.message_rounds})")
        print(f"detection mean {_flt(stats.detection_rate)}")
        print(f"survival probability {_flt(stats.survival_probability)}")
        print(f"seed = {seed} generator = {stats.generator_id}")
    else:
        _emit_json(_envelope("mc", payload, _convention_flags(args), seed=seed))
    return 0


def _fmt_state(state) -> list[list[str]]:
    return [[_flt(a.real), _flt(a.imag)] for a in state.amp]


def _cmd_round(args: argparse.Namespace) -> int:
    bits = args.bits
    if len(bits) != 4 or set(bits) - set("01"):
        raise UsageError("--bits must be four 0/1 characters: ijkl")
    i, j, k, l = (int(b) for b in bits)
    attack = _build_attack(args)
    source = _resolve_source(args)
    config = RoundConfig((k, l), (i, j), args.mode, args.outcome_labels,
                         args.expected_labels, args.comparison)
    t = run_round(config, attack, source)
    record = None
    if t.eve_record is not None:
        record = _fields(t.eve_record) | {"kind": type(t.eve_record).__name__}
    payload = {
        "attack": _attack_echo(attack),
        "mode": args.mode,
        "alice_bits": [i, j],
        "bob_bits": [k, l],
        "states": {
            "after_prepare": _fmt_state(t.after_prepare),
            "after_bob_encode": _fmt_state(t.after_bob_encode),
            "after_eve_b2a": _fmt_state(t.after_eve_b2a),
            "after_alice_encode": _fmt_state(t.after_alice_encode),
            "after_eve_a2b": _fmt_state(t.after_eve_a2b),
        },
        "eve_record": record,
        "bell_outcome": {
            "k": t.bell_outcome.k,
            "l": t.bell_outcome.l,
            "convention": t.bell_outcome.convention.value,
        },
        "bell_probability": _flt(t.bell_probability),
        "decoded_alice_bits": list(t.decoded_alice_bits) if t.decoded_alice_bits else None,
        "decoded_bob_bits": list(t.decoded_bob_bits) if t.decoded_bob_bits else None,
        "detected": t.detected,
    }
    _emit_json(_envelope("round", payload, _convention_flags(args),
                         seed=source.seed))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    report = compare_claims()
    payload = {
        "paper_claim": _frac(report.paper_claim),
        "cai_claim": _frac(report.cai_claim),
        "strict_paper_average": _frac(report.strict_paper_average),
        "consistent_value": _frac(report.consistent_value),
        "explanation": report.explanation,
    }
    if args.format == "text":
        print(f"claimed average (strict bookkeeping): {payload['paper_claim']}")
        print(f"reported counterclaim:                {payload['cai_claim']}")
        print(f"strict-paper enumeration:             {payload['strict_paper_average']}")
        print(f"convention-consistent enumeration:    {payload['consistent_value']}")
        print()
        print(report.explanation)
    else:
        _emit_json(_envelope("compare", payload))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="qdialogue",
                     description="Quantum dialogue eavesdropping analysis")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("exact", help="exact enumeration of one attack")
    _add_attack_flags(p)
    _add_convention_flags(p)
    _add_format_flag(p)
    p.set_defaults(func=_cmd_exact, parser=p)

    p = sub.add_parser("table", help="published intercept-measure case table")
    _add_format_flag(p)
    p.set_defaults(func=_cmd_table, format="text", parser=p)

    p = sub.add_parser("mc", help="seeded Monte Carlo session")
    _add_attack_flags(p)
    _add_convention_flags(p)
    _add_format_flag(p, choices=("json", "text"))
    p.add_argument("--rounds", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--control-fraction", type=float, default=1.0)
    p.set_defaults(func=_cmd_mc, parser=p)

    p = sub.add_parser("round", help="single-round transcript dump")
    _add_attack_flags(p)
    _add_convention_flags(p)
    p.add_argument("--bits", required=True, metavar="ijkl",
                   help="Alice's then Bob's bits, e.g. 1001")
    p.add_argument("--mode", choices=[mode.value for mode in Mode],
                   default=Mode.MESSAGE.value)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_round, parser=p)

    p = sub.add_parser("compare", help="side-by-side claims report")
    _add_format_flag(p, choices=("json", "text"))
    p.set_defaults(func=_cmd_compare, parser=p)

    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    usage = parser  # the failing subcommand's parser, once one is known
    try:
        argv = list(argv)
        args, extras = parser.parse_known_args(argv)
        usage = args.parser
        if extras:
            # extras before the subcommand token are the top level's
            if set(extras) & set(argv[:argv.index(args.subcommand)]):
                usage = parser
            usage.error(f"unrecognized arguments: {' '.join(extras)}")
        return args.func(args)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        (exc.parser or usage).print_usage(sys.stderr)
        return 1
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
