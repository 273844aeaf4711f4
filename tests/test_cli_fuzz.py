"""CLI argv fuzz: any mix of subcommands, flags and junk values exits 0 or 1
without a traceback, and runs the same way twice."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from qdialogue.cli import run_cli


#: every flag the subcommands know: values they accept, values they reject
FLAG_VALUES = {
    "--attack": (("none", "intercept", "disturb"), ("spy",)),
    "--route": (("b2a", "a2b"), ("ab",)),
    "--selection": (("fixed", "uniform4", "coin-iz"), ("coin",)),
    "--uv": (("00", "11"), ("2", "011")),
    "--outcome-labels": (("oe", "pp"), ("xx",)),
    "--expected-labels": (("oe", "pp"), ("OE",)),
    "--compare": (("strict-paper", "converted"), ("loose",)),
    "--format": (("json", "csv", "text"), ("xml",)),
    "--rounds": (("1", "5"), ("0", "-3", "1e2")),
    "--seed": (("0", "7", str(2**64 - 1), "\uff11"), ("-1", str(2**64), "3.5")),
    "--control-fraction": (("0", "0.5", "1"), ("1.5", "nan", "-inf")),
    "--bits": (("1001", "0000"), ("01", "10a1")),
    "--mode": (("message", "control"), ("spy",)),
}
_ATTACK_FLAGS = ("--attack", "--route", "--selection", "--uv")
_CONVENTION_FLAGS = ("--outcome-labels", "--expected-labels", "--compare")
#: the flags each subcommand knows
SUBCOMMAND_FLAGS = {
    "exact": _ATTACK_FLAGS + _CONVENTION_FLAGS + ("--format",),
    "table": ("--format",),
    "mc": _ATTACK_FLAGS + _CONVENTION_FLAGS
    + ("--format", "--rounds", "--seed", "--control-fraction"),
    "round": _ATTACK_FLAGS + _CONVENTION_FLAGS + ("--bits", "--mode", "--seed"),
    "compare": ("--format",),
}
JUNK = ("", "-", "--", "x", "--bogus", "exact", "--seed=3")
#: unknown flags given before the subcommand
TOP_LEVEL_JUNK = ("--bogus", "--seed=3", "-x")


@st.composite
def argvs(draw) -> list[str]:
    """Mostly a subcommand, then up to six flags, mostly its own: most with
    an accepted value, some with a rejected one, some alone or replaced by
    junk."""
    head = draw(st.sampled_from(tuple(SUBCOMMAND_FLAGS) * 4
                                + JUNK + ("-h", "--version")))
    known = SUBCOMMAND_FLAGS.get(head, ())
    argv = [head]
    if known and not draw(st.integers(0, 5)):  # a flag the top level lacks
        argv.insert(0, draw(st.sampled_from(TOP_LEVEL_JUNK)))
    if head == "round" and draw(st.integers(0, 4)):  # --bits is required
        argv += ["--bits", draw(st.sampled_from(sum(FLAG_VALUES["--bits"], ())))]
    for _ in range(draw(st.integers(0, 6))):
        pool = known if known and draw(st.integers(0, 4)) else tuple(FLAG_VALUES)
        flag = draw(st.sampled_from(pool))
        accepted, rejected = FLAG_VALUES[flag]
        kind = draw(st.integers(0, 5))
        if kind < 4:
            argv += [flag, draw(st.sampled_from(accepted))]
        elif kind == 4:
            argv += [flag, draw(st.sampled_from(rejected + JUNK))]
        else:
            argv.append(draw(st.sampled_from((flag,) + JUNK)))
    # the last --rounds wins, so no session runs the default 10 000 rounds
    return argv + ["--rounds", "3"] if "mc" in argv else argv


def _run_captured(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argvs())
def test_argv_fuzz(argv):
    """Any mix of subcommands, flags and junk exits 0 or 1 without a
    traceback, a repeat prints the same stdout, and an unknown flag before
    the subcommand is reported with the top-level usage."""
    code, out, err = _run_captured(argv)
    assert code in (0, 1), (argv, err)
    assert "Traceback" not in err
    assert _run_captured(argv)[:2] == (code, out)
    # unknown flags before the subcommand are the top level's to report
    if f"unrecognized arguments: {argv[0]}" in err and argv[0] in TOP_LEVEL_JUNK:
        assert "usage: qdialogue [-h] [--version]" in err, argv
