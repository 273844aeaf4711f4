"""CLI behavior: envelopes, formats, exit codes, golden-file regressions.

Regenerate golden files with ``QDLG_UPDATE_GOLDEN=1 pytest tests/test_cli.py``.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import qdialogue
from qdialogue import cli
from qdialogue.cli import run_cli
from qdialogue.exactstate import ExactState
from qdialogue.model import (
    CoinIZ,
    DisturbPauli,
    Fixed,
    InterceptMeasure,
    InvariantError,
    Passive,
    Route,
    UniformAll4,
)
from qdialogue.qcore import SQRT_HALF, TwoQubitState

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC_DIR = Path(__file__).parent.parent / "src"

#: every subcommand's invocation with a golden file, and that file
GOLDEN_INVOCATIONS = [
    (("exact", "--attack", "disturb", "--selection", "uniform4"),
     "exact_disturb_uniform4.json"),
    (("exact", "--attack", "intercept", "--format", "csv"), "exact_intercept.csv"),
    (("table",), "table.txt"),
    (("mc", "--attack", "disturb", "--selection", "coin-iz", "--rounds", "400",
      "--seed", "11", "--control-fraction", "0.5"), "mc_disturb_coiniz.json"),
    (("round", "--bits", "0111", "--attack", "intercept", "--mode", "control",
      "--seed", "3"), "round_intercept.json"),
    (("compare",), "compare.json"),
    (("mc", "--attack", "intercept", "--route", "a2b", "--outcome-labels", "pp",
      "--compare", "strict-paper", "--rounds", "2000", "--seed", "5",
      "--control-fraction", "0.5"), "mc_intercept_a2b_pp.json"),
    (("exact", "--attack", "disturb", "--selection", "uniform4", "--format", "text"),
     "exact_disturb_uniform4.txt"),
    (("exact", "--attack", "intercept", "--format", "text"), "exact_intercept.txt"),
    (("table", "--format", "json"), "table.json"),
    (("table", "--format", "csv"), "table.csv"),
    (("mc", "--attack", "disturb", "--selection", "coin-iz", "--rounds", "400",
      "--seed", "11", "--control-fraction", "0.5", "--format", "text"),
     "mc_disturb_coiniz.txt"),
    (("compare", "--format", "text"), "compare.txt"),
]


def invoke(capsys, *argv):
    code = run_cli(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def check_golden(name: str, output: str) -> None:
    path = GOLDEN_DIR / name
    if os.environ.get("QDLG_UPDATE_GOLDEN"):
        path.write_text(output)
    assert path.read_text() == output


class TestExact:
    def test_disturb_uniform4_text(self, capsys):
        code, out, _ = invoke(
            capsys, "exact", "--attack", "disturb", "--selection", "uniform4",
            "--format", "text",
        )
        assert code == 0
        assert "average = 3/4" in out

    def test_strict_paper_flags_reach_published_figure(self, capsys):
        code, out, _ = invoke(
            capsys, "exact", "--attack", "intercept",
            "--outcome-labels", "pp", "--expected-labels", "oe",
            "--compare", "strict-paper", "--format", "text",
        )
        assert code == 0
        assert "average = 3/4" in out

    def test_fixed_requires_uv(self, capsys):
        code, _, err = invoke(
            capsys, "exact", "--attack", "disturb", "--selection", "fixed"
        )
        assert code == 1 and "--uv" in err

    @pytest.mark.parametrize("flags,named", [
        (("--attack", "intercept", "--selection", "fixed", "--uv", "11"),
         "--selection"),
        (("--attack", "intercept", "--uv", "10"), "--uv"),
        (("--attack", "none", "--route", "a2b"), "--route"),
        (("--attack", "none", "--selection", "coin-iz"), "--selection"),
        (("--attack", "disturb", "--uv", "1"), "--uv"),
        (("--attack", "disturb", "--selection", "coin-iz", "--uv", "11"), "--uv"),
    ])
    def test_contradictory_flags_are_usage_errors(self, capsys, flags, named):
        code, out, err = invoke(capsys, "exact", *flags)
        assert code == 1 and named in err and out == ""


def expected_attack(attack, route, selection, uv):
    """The strategy the attack flags select, or None where they contradict
    each other (a usage error)."""
    if attack != "disturb" and (selection or uv):
        return None
    if attack == "none":
        return None if route else Passive()
    if attack == "intercept":
        return InterceptMeasure(Route(route or "b2a"))
    if selection == "fixed":
        if uv not in ("00", "01", "10", "11"):
            return None
        rule = Fixed(int(uv[0]), int(uv[1]))
    elif uv:
        return None
    else:
        rule = CoinIZ() if selection == "coin-iz" else UniformAll4()
    return DisturbPauli(Route(route or "a2b"), rule)


def echo_flags(echo: dict) -> list[str]:
    """The attack flags that a JSON ``attack`` echo stands for."""
    flags = ["--attack", echo["type"]]
    if "route" in echo:
        flags += ["--route", echo["route"]]
    if "selection" in echo:
        rule = echo["selection"]
        flags += ["--selection", rule["rule"]]
        if "u" in rule:
            flags += ["--uv", f"{rule['u']}{rule['v']}"]
    return flags


@pytest.mark.parametrize("attack,route,selection,uv", list(product(
    ("none", "intercept", "disturb"),
    (None, "b2a", "a2b"),
    (None, "fixed", "uniform4", "coin-iz"),
    (None, "00", "01", "10", "11", "2", "011"),
)))
def test_attack_flags_exhaustive(capsys, attack, route, selection, uv):
    flags = ["--attack", attack]
    for name, value in (("--route", route), ("--selection", selection), ("--uv", uv)):
        if value is not None:
            flags += [name, value]
    code, out, err = invoke(capsys, "exact", *flags, "--format", "json")
    want = expected_attack(attack, route, selection, uv)
    if want is None:
        assert code == 1 and out == "" and "usage" in err
        return
    assert code == 0
    echo = json.loads(out)["payload"]["attack"]
    args = cli._build_parser().parse_args(["exact", *echo_flags(echo)])
    assert cli._build_attack(args) == want


def test_a_parser_parses_a_subcommand_twice():
    # a subcommand's flags are added on its first parse only
    parser = cli._build_parser()
    first = vars(parser.parse_args(["mc", "--seed", "3"]))
    assert vars(parser.parse_args(["mc", "--seed", "3"])) == first


class TestTable:
    def test_rows_and_average(self, capsys):
        code, out, _ = invoke(capsys, "table")
        assert code == 0
        lines = out.splitlines()
        assert "(a,i) d = 1/1" in lines
        assert "(a,ii) d = 1/1" in lines
        assert "(a,iii) d = 1/2" in lines
        assert "(a,iv) d = 1/2" in lines
        assert "(b,iv) d = 1/2" in lines
        assert "average = 3/4" in lines


class TestMc:
    def test_passive_zero_mean(self, capsys):
        code, out, _ = invoke(
            capsys, "mc", "--attack", "none", "--rounds", "1000",
            "--seed", "7", "--format", "text",
        )
        assert code == 0
        assert "detection mean 0.000000" in out

    def test_byte_identical_repeats(self, capsys):
        args = ("mc", "--attack", "intercept", "--rounds", "500", "--seed", "42")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_embeds_seed_and_generator(self, capsys):
        _, out, _ = invoke(
            capsys, "mc", "--attack", "intercept", "--rounds", "100", "--seed", "5"
        )
        env = json.loads(out)
        assert env["seed"] == 5
        assert "generator_id" in env

    def test_env_seed_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("QDLG_SEED", "31")
        _, out, _ = invoke(capsys, "mc", "--attack", "none", "--rounds", "50")
        assert json.loads(out)["seed"] == 31

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QDLG_SEED", "not-a-number")
        code, _, err = invoke(capsys, "mc", "--attack", "none", "--rounds", "50")
        assert code == 1 and "QDLG_SEED" in err

    @pytest.mark.parametrize("command", [
        ("mc", "--rounds", "10"),
        ("round", "--bits", "0000"),
    ])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_is_usage_error(self, capsys, command, seed):
        code, out, err = invoke(capsys, *command, "--seed", seed)
        assert code == 1 and "--seed" in err and out == ""

    def test_out_of_range_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QDLG_SEED", "-1")
        code, out, err = invoke(capsys, "mc", "--attack", "none", "--rounds", "50")
        assert code == 1 and "QDLG_SEED" in err and out == ""

    def test_largest_seed_accepted(self, capsys):
        code, out, _ = invoke(capsys, "mc", "--rounds", "10", "--seed", str(2**64 - 1))
        assert code == 0 and json.loads(out)["seed"] == 2**64 - 1

    def test_rejects_zero_rounds(self, capsys):
        code, _, _ = invoke(capsys, "mc", "--rounds", "0")
        assert code == 1


class TestRound:
    def test_passive_message_round(self, capsys):
        code, out, _ = invoke(
            capsys, "round", "--bits", "1001", "--seed", "0"
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["bell_outcome"] == {"convention": "oe", "k": 1, "l": 1}
        assert payload["decoded_alice_bits"] == [1, 0]
        assert payload["decoded_bob_bits"] == [0, 1]

    @pytest.mark.parametrize("uv", ["01", "10"])
    def test_disturb_round_records_applied_pauli(self, capsys, uv):
        code, out, _ = invoke(
            capsys, "round", "--bits", "1001", "--attack", "disturb",
            "--selection", "fixed", "--uv", uv, "--seed", "0",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        u, v = int(uv[0]), int(uv[1])
        assert payload["eve_record"] == {"kind": "AppliedPauli", "u": u, "v": v}
        assert payload["attack"]["selection"] == {"rule": "fixed", "u": u, "v": v}

    def test_bad_bits(self, capsys):
        code, _, err = invoke(capsys, "round", "--bits", "10a1")
        assert code == 1 and "--bits" in err


class TestCompare:
    def test_reports_all_three_figures(self, capsys):
        code, out, _ = invoke(capsys, "compare")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["paper_claim"] == "3/4"
        assert payload["cai_claim"] == "1/2"
        assert payload["strict_paper_average"] == "3/4"
        assert payload["consistent_value"] == "1/2"


ATTACK_FLAGS = {"--attack", "--route", "--selection", "--uv"}
BOOKKEEPING_FLAGS = {"--outcome-labels", "--expected-labels", "--compare"}
#: each subcommand's long options besides --help, as README's CLI section
#: lists them
SUBCOMMAND_FLAGS = {
    "exact": {*ATTACK_FLAGS, *BOOKKEEPING_FLAGS, "--format"},
    "table": {"--format"},
    "mc": {*ATTACK_FLAGS, *BOOKKEEPING_FLAGS, "--format", "--rounds", "--seed",
           "--control-fraction"},
    "round": {*ATTACK_FLAGS, *BOOKKEEPING_FLAGS, "--bits", "--mode", "--seed"},
    "compare": {"--format"},
}


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = invoke(capsys, "bogus")
        assert code == 1 and "usage" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "exact", "--frobnicate")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0 and "exact" in out

    @pytest.mark.parametrize("subcommand", SUBCOMMAND_FLAGS)
    def test_subcommand_help_lists_its_flags(self, capsys, subcommand):
        # option strings only: argparse's help layout differs by version
        code, out, err = invoke(capsys, subcommand, "--help")
        assert code == 0 and err == ""
        assert set(re.findall(r"(?<![\w-])--\w[\w-]*", out)) == {
            "--help", *SUBCOMMAND_FLAGS[subcommand]}

    @pytest.mark.parametrize("argv", [
        ("round", "--bits", "01"),          # rejected by the command
        ("exact", "--frobnicate"),          # unknown to the subcommand
        ("mc", "--rounds", "x"),            # rejected by argparse
        ("table", "--format", "xml"),
        ("compare", "--format", "csv"),
        ("mc", "--attack", "none", "--uv", "11"),
    ])
    def test_usage_error_shows_subcommand_usage(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert f"usage: qdialogue {argv[0]} [-h]" in err

    @pytest.mark.parametrize("argv", [
        (), ("bogus",),
        ("--bogus", "exact"),                # unknown before the subcommand
        ("--seed=3", "mc", "--bogus"),
    ])
    def test_top_level_error_shows_top_level_usage(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert "usage: qdialogue [-h] [--version]" in err

    def test_invariant_violation_exits_two(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise InvariantError("snapshot lost normalization")

        monkeypatch.setattr("qdialogue.cli.enumerate_exact", boom)
        code, _, err = invoke(capsys, "exact", "--attack", "intercept")
        assert code == 2 and "invariant" in err

    @pytest.mark.usefixtures("fresh_walk")
    def test_indefinite_home_qubit_exits_two(self, capsys, monkeypatch):
        # an intercept branch that leaves both home amplitudes nonzero
        mixed = ExactState(((1, 0), (0, 0), (1, 0), (0, 0)), 1)
        monkeypatch.setattr("qdialogue.exactstate.measure_t_branches",
                            lambda state: [(1 << state.half, mixed, 0)])
        code, out, err = invoke(capsys, "exact", "--attack", "intercept")
        assert code == 2 and "home qubit" in err and out == ""

    @pytest.mark.usefixtures("fresh_walk")
    def test_indefinite_home_qubit_in_session_exits_two(self, capsys, monkeypatch):
        # the session samples the tree of the exact walk, which checks
        # every intercept collapse
        mixed = ExactState(((1, 0), (0, 0), (1, 0), (0, 0)), 1)
        monkeypatch.setattr("qdialogue.exactstate.measure_t_branches",
                            lambda state: [(1 << state.half, mixed, 0)])
        code, out, err = invoke(capsys, "mc", "--attack", "intercept",
                                "--rounds", "20", "--seed", "1")
        assert code == 2 and out == ""
        assert "home qubit" in err and "Traceback" not in err

    def test_lost_bell_weight_in_round_exits_two(self, capsys, monkeypatch):
        # the pair Bob measures with one of its two amplitudes dropped, built
        # past the constructor's norm check, forwarded by Eve's last tap
        dropped = object.__new__(TwoQubitState)
        object.__setattr__(dropped, "amp", (0j, SQRT_HALF + 0j, 0j, 0j))
        monkeypatch.setattr("qdialogue.protocol.apply_eve", lambda eve, route, state, rand: (
            dropped if route is Route.A_TO_B else state, None))
        code, out, err = invoke(capsys, "round", "--bits", "0111", "--seed", "3")
        assert code == 2 and out == ""
        assert "Bell weights" in err and "Traceback" not in err

    @pytest.mark.usefixtures("fresh_walk")
    def test_non_dyadic_collapse_exits_two(self, capsys, monkeypatch):
        # t = 0 carries weight 3/4, which no power of 1/2 renormalizes
        skewed = ExactState(((1, 1), (1, 0), (1, 0), (0, 0)), 2)
        monkeypatch.setattr("qdialogue.exactstate.apply_pauli_t_exact",
                            lambda state, code: skewed)
        code, out, err = invoke(capsys, "exact", "--attack", "intercept")
        assert code == 2 and "non-dyadic" in err and out == ""

    @pytest.mark.usefixtures("fresh_walk")
    def test_lost_bell_weight_in_exact_exits_two(self, capsys, monkeypatch):
        # every leaf loses the weight of its first nonzero Bell outcome
        from qdialogue.exactstate import bell_weights_exact

        def dropped(state, convention):
            weights = list(bell_weights_exact(state, convention))
            weights[next(x for x, w in enumerate(weights) if w)] = 0
            return tuple(weights)

        monkeypatch.setattr("qdialogue.exactstate.bell_weights_exact", dropped)
        code, out, err = invoke(capsys, "exact", "--attack", "disturb")
        assert code == 2 and out == ""
        assert "Bell weights" in err and "Traceback" not in err

    @pytest.mark.usefixtures("fresh_walk")
    def test_lost_tap_branch_in_exact_exits_two(self, capsys, monkeypatch):
        # Eve's measurement keeps only its first outcome
        from qdialogue.exactstate import measure_t_branches

        monkeypatch.setattr("qdialogue.exactstate.measure_t_branches",
                            lambda state: measure_t_branches(state)[:1])
        code, out, err = invoke(capsys, "exact", "--attack", "intercept")
        assert code == 2 and out == ""
        assert "Eve's branches" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,golden", GOLDEN_INVOCATIONS,
                         ids=[argv[0] + ":" + name for argv, name in GOLDEN_INVOCATIONS])
def test_golden_in_process(capsys, argv, golden):
    """Every golden invocation prints its file byte for byte."""
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    check_golden(golden, out)


@pytest.mark.parametrize("argv,golden", GOLDEN_INVOCATIONS,
                         ids=[argv[0] + ":" + name for argv, name in GOLDEN_INVOCATIONS])
def test_goldens_without_numpy(argv, golden):
    """Every subcommand runs in a fresh interpreter where importing numpy
    fails, and prints its golden output."""
    program = ("import sys\n"
               "sys.modules['numpy'] = None\n"
               "from qdialogue.cli import main\n"
               "main()\n")
    path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", program, *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / golden).read_text()


@pytest.mark.parametrize("argv,golden", GOLDEN_INVOCATIONS,
                         ids=[argv[0] + ":" + name for argv, name in GOLDEN_INVOCATIONS])
def test_console_script(argv, golden):
    """The installed ``qdialogue`` console script prints every golden
    output; skipped when no such script is on ``PATH``."""
    script = shutil.which("qdialogue")
    if script is None:
        pytest.skip("no qdialogue console script installed")
    proc = subprocess.run([script, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN_DIR / golden).read_text()


#: every submodule of the package
SUBMODULES = {f"qdialogue.{path.stem}" for path in (SRC_DIR / "qdialogue").glob("*.py")
              if path.stem != "__init__"}
#: the float round simulator, the exact reports and the CLI
NOT_SAMPLERS = {"qdialogue.qcore", "qdialogue.attacks", "qdialogue.protocol",
                "qdialogue.analysis", "qdialogue.cli"}

#: a subcommand's argv, and whether its process loads the samplers
CLI_SAMPLERS = [
    (["exact"], set()),
    (["table"], set()),
    (["compare"], set()),
    (["round", "--bits", "1001", "--seed", "3"], set()),
    (["mc", "--rounds", "50", "--seed", "1"], {"qdialogue.sampling"}),
]

#: (program, modules checked, those of them it must load): each program runs
#: in a fresh interpreter and reports which of the checked modules it loaded
FRESH_PROCESSES = [
    # hashlib serves only child streams, numpy only the array helpers
    # ``pauli_matrix`` and ``as_array``, which the tests call; the value
    # classes and the annotations do without dataclasses, inspect and
    # typing; fractions (with decimal) serves only the exact folds, and csv
    # only ``--format csv``
    ("import qdialogue.cli",
     {"hashlib", "numpy", "dataclasses", "inspect", "typing", "fractions", "decimal",
      "csv"}, set()),
    # the samplers walk the exact tree in ints and build no Fraction, and
    # load neither the float round simulator nor the exact reports
    ("from qdialogue import InterceptMeasure, RandomSource, monte_carlo, run_session\n"
     "monte_carlo(InterceptMeasure(), n=500, seed=1)\n"
     "run_session(500, 0.5, RandomSource(2), InterceptMeasure())",
     {"fractions", "decimal", *NOT_SAMPLERS}, set()),
    ("from qdialogue.cli import run_cli\n"
     "assert run_cli(['mc', '--attack', 'intercept', '--rounds', '50', '--seed', '1']) == 0\n"
     "assert run_cli(['round', '--bits', '1001', '--seed', '3']) == 0",
     {"fractions", "decimal", "csv"}, set()),
    # the positive control: an exact report builds its Fractions, without
    # the CLI
    ("from qdialogue import Passive, enumerate_exact\n"
     "enumerate_exact(Passive())",
     {"fractions", "qdialogue.cli"}, {"fractions"}),
    # the exact reports load only the model, the walk and the reports: the
    # names ``analysis`` keeps for the acceptance test and the tracer
    # resolve on first access
    ("from qdialogue import (InterceptMeasure, compare_claims, enumerate_exact,\n"
     "                       message_error_rate, paper_case_table)\n"
     "enumerate_exact(InterceptMeasure())\n"
     "message_error_rate(InterceptMeasure())\n"
     "paper_case_table()\n"
     "compare_claims()",
     {"fractions", "numpy", "hashlib", *SUBMODULES},
     {"fractions", "qdialogue.model", "qdialogue.exactstate", "qdialogue.analysis"}),
    # the package resolves its names on first access
    ("import qdialogue", SUBMODULES, set()),
    # a CLI process loads the samplers only for ``mc``, the positive control
    *((f"from qdialogue.cli import run_cli\nassert run_cli({argv!r}) == 0",
       {"qdialogue.sampling"}, loaded) for argv, loaded in CLI_SAMPLERS),
]


@pytest.mark.parametrize("program,checked,loaded", FRESH_PROCESSES,
                         ids=["import-cli", "samplers", "cli-mc-round", "exact-control",
                              "exact-reports", "import-package",
                              *(f"cli-{argv[0]}-sampling" for argv, _ in CLI_SAMPLERS)])
def test_fresh_process_loads_only_what_it_uses(program, checked, loaded):
    """A fresh interpreter that runs ``program`` loads of the ``checked``
    modules exactly those in ``loaded``.  The verdict goes to stderr, since
    the CLI writes to stdout.  ``-S`` skips ``site``, whose ``.pth`` files
    may import typing themselves."""
    program = (f"{program}\n"
               "import sys\n"
               f"sys.stderr.write(repr(sorted(set({sorted(checked)!r}) & set(sys.modules))))\n")
    path = os.pathsep.join(filter(None, (str(SRC_DIR), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-S", "-c", program], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == repr(sorted(loaded))


#: the names the package exports
PUBLIC_NAMES = (
    "AppliedPauli", "BellLabel", "CaseDescriptor", "ClaimsReport", "CoinIZ", "Comparison",
    "Convention",
    "DetectionReport", "DisturbPauli", "Fixed", "InterceptMeasure", "McEstimate",
    "MeasuredBranch", "MessageErrorReport", "Mode", "Passive", "PauliCode", "Phase",
    "PhasedPauli", "RandomSource", "RoundConfig", "RoundTranscript", "Route",
    "SessionStats", "TwoQubitState", "UniformAll4", "apply_eve", "apply_pauli_t",
    "bell_decompose", "bell_state", "compare_claims", "enumerate_exact",
    "equal_up_to_global_phase", "expected_outcome", "label_map", "measure_bell",
    "measure_t_computational", "message_error_rate", "monte_carlo", "pauli_action_closed_form",
    "pauli_compose", "pauli_matrix", "paper_case_table", "run_round", "run_session",
)


def test_public_names_resolve_to_their_home():
    """Each public name resolves to the object of that name in the module
    that defines it, is kept in the package's globals and is listed by
    ``dir``; an unknown name raises AttributeError."""
    assert sorted(qdialogue.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        value = getattr(qdialogue, name)
        home = sys.modules[value.__module__]
        assert home.__name__ in SUBMODULES and getattr(home, name) is value, name
        assert vars(qdialogue)[name] is value and name in dir(qdialogue), name
    namespace = {}
    exec("from qdialogue import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    with pytest.raises(AttributeError, match="no attribute 'run_rounds'"):
        qdialogue.run_rounds


#: the names ``analysis`` keeps for the acceptance test and the tracer,
#: each with the module that defines it
ANALYSIS_LAZY_NAMES = {
    "monte_carlo": "sampling", "run_round": "protocol", "apply_pauli_t_exact": "exactstate",
    "measure_t_branches": "exactstate", "bell_weights_exact": "exactstate",
    "RoundConfig": "model",
}


def test_analysis_names_resolve_to_their_home():
    """Each name ``analysis`` resolves on first access is the object of its
    home module, is kept in the module's globals and is listed by ``dir``;
    an unknown name raises AttributeError."""
    from qdialogue import analysis
    listed = dir(analysis)
    for name, home in ANALYSIS_LAZY_NAMES.items():
        assert name in listed, name
        value = getattr(analysis, name)
        assert value is getattr(sys.modules[f"qdialogue.{home}"], name), name
        assert vars(analysis)[name] is value, name
    with pytest.raises(AttributeError, match="'qdialogue.analysis' has no attribute 'run_rounds'"):
        analysis.run_rounds
