"""Mutation checks that anyone can rerun.

Each mutant names a file, an exact ``old`` text that occurs there once, the
``new`` text that replaces it, and the tests that must fail once it is
applied.  Run from anywhere:

    python tests/mutants.py

A fresh temporary copy of ``src/`` and ``tests/`` (and of ``bench/``, whose
tracer a test loads) runs every listed test once, unmutated, in one pytest
process.  Then, for each mutant, a fresh copy with the mutant applied runs
each of its tests in its own pytest process.  A test kills its mutant when
it passes on the unmutated copy and fails on the mutated one; any other
outcome (a pass on the mutated copy, or an error such as a test that is not
found) is reported, and the runner exits 1.  Nothing is written to the
checkout.  ``tests/test_mutants.py`` checks, with no subprocess, that every
``old`` text still occurs once and that every listed test exists, so a
change that moves mutated code updates its mutant here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", "file old new tests")

MUTANTS = {
    # the float round picks a code by the selection's weights read in reverse
    "float-tap-reversed-weights": Mutant(
        "src/qdialogue/attacks.py",
        "accumulate(weights)",
        "accumulate(weights[::-1])",
        ("tests/test_protocol.py::TestRoundFollowsTree::test_every_leaf",),
    ),
    # the exact walk weighs each code by the selection's weights read in reverse
    "exact-tap-reversed-weights": Mutant(
        "src/qdialogue/exactstate.py",
        "zip(weights, action.codes)",
        "zip(weights[::-1], action.codes)",
        ("tests/test_law.py::test_detection_is_linear_in_the_weights",
         "tests/test_analysis.py::TestFractionReference::test_no_rounding_with_a_third"),
    ),
    # the walk drops each leaf's draw mass: every code weighs alike, which
    # no sum check sees, since the branch masses are summed before it
    "walk-drops-draw-mass": Mutant(
        "src/qdialogue/exactstate.py",
        "(place, b, branch, sel, x, mass * w)",
        "(place, b, branch, sel, x, w)",
        ("tests/test_law.py::test_detection_is_linear_in_the_weights",
         "tests/test_analysis.py::TestEnumerateExact::test_agrees_with_oracle_beyond_its_grid"),
    ),
    # Eve's measurement keeps the t = 0 part for both outcomes: the parts
    # still carry all of the probability, so only the values change
    "measure-keeps-t0-twice": Mutant(
        "src/qdialogue/exactstate.py",
        "(x & 1) == t",
        "(x & 1) == 0",
        ("tests/test_analysis.py::TestEnumerateExact::test_agrees_with_brute_force_oracle",
         "tests/test_analysis.py::TestFractionReference::test_detection_reports_equal_reference",
         "tests/test_grid.py::test_every_engine_gives_the_committed_grid"),
    ),
    # the fold counts a leaf as detected by its control bit, not its
    # detected bit: every case reads 1, while the average, read from the
    # tally groups, stays right
    "fold-hit-on-control-bit": Mutant(
        "src/qdialogue/analysis.py",
        "hit = mass if tally & 2 else 0",
        "hit = mass if tally & 1 else 0",
        ("tests/test_analysis.py::TestEnumerateExact::test_agrees_with_brute_force_oracle",),
    ),
    # a report chains the bit tuples' (case, value) pairs in reverse order:
    # every value holds, and only the order of per_case's keys changes
    "per-case-chained-in-reverse": Mutant(
        "src/qdialogue/analysis.py",
        "itemgetter(*places)(reach)",
        "itemgetter(*places[::-1])(reach)",
        ("tests/test_analysis.py::TestWalkCache::test_warm_report_takes_its_own_order",),
    ),
    # a frozen value hashes its fields without its class: values of two
    # classes with equal fields, such as two with none, share a hash, which
    # costs every cache lookup an __eq__ call but changes no result
    "hash-without-its-class": Mutant(
        "src/qdialogue/model.py",
        "hash((type(self), self._values(self)))",
        "hash(self._values(self))",
        ("tests/test_values.py::test_grid_strategies_and_selections_hash_apart",),
    ),
    # the one error scores the outcome's l against Bob's k, not l: the
    # tally bits n and the pair error of every outcome with k != l are wrong
    "tally-bit-l-against-k": Mutant(
        "src/qdialogue/model.py",
        "outcome.l ^ j ^ l",
        "outcome.l ^ j ^ k",
        ("tests/test_protocol.py::TestOutcomeTallies::test_each_byte_is_the_rules",),
    ),
    # the float round decodes Alice's bits i and j with each other's error
    # bit, m and n swapped
    "round-reads-i-and-j-errors-swapped": Mutant(
        "src/qdialogue/protocol.py",
        "= (i ^ m, j ^ n),",
        "= (i ^ n, j ^ m),",
        ("tests/test_grid.py::test_every_engine_gives_the_committed_grid",
         "tests/test_protocol.py::TestSessionTable::test_equals_reference_loop"),
    ),
    # the float round decodes Bob's bits k and l with m and n swapped: the
    # two parties' decodes no longer miss by one error
    "round-decodes-bob-by-a-swapped-error": Mutant(
        "src/qdialogue/protocol.py",
        "), (k ^ m, l ^ n)",
        "), (k ^ n, l ^ m)",
        ("tests/test_protocol.py::TestSessionTable::test_equals_reference_loop",),
    ),
    # the float round takes detected from the control bit: every control
    # round flags Eve
    "round-detected-from-control-bit": Mutant(
        "src/qdialogue/protocol.py",
        "bool(tally & 2)",
        "bool(tally & 1)",
        ("tests/test_protocol.py::TestNoEveRounds::test_control_never_detects",),
    ),
    # the samplers take a picked leaf's tallies by its Eve branch index,
    # not by its Bell outcome: the key-to-leaf table is right, and only the
    # tally bytes change
    "leaf-tallies-by-branch-index": Mutant(
        "src/qdialogue/sampling.py",
        "leaves[n][0] << 2 | leaves[n][4]",
        "leaves[n][0] << 2 | leaves[n][1]",
        ("tests/test_grid.py::test_every_engine_gives_the_committed_grid",
         "tests/test_protocol.py::TestResolver::test_every_key_is_its_round"),
    ),
    # the key-to-leaf table off by one leaf: a Bell quarter picks the leaf
    # before its own in its branch, which only intercept's branches have
    "key-to-leaf-off-by-one": Mutant(
        "src/qdialogue/sampling.py",
        "bytes(branch[x] for x",
        "bytes(branch[x - 1] for x",
        ("tests/test_protocol.py::TestResolver::test_every_key_is_its_round",),
    ),
    # a mixed session settles a mode word equal to the fraction as control;
    # only words on the open byte are settled whole, so only they see it
    "mode-draw-settled-with-le": Mutant(
        "src/qdialogue/sampling.py",
        "u < control_fraction",
        "u <= control_fraction",
        ("tests/test_protocol.py::TestResolver::test_mode_draws_on_the_open_byte",),
    ),
    # the samplers read each round's key from the byte below its word's top
    # byte: the stream and its layout stay, and only the decisions move
    "key-read-one-byte-low": Mutant(
        "src/qdialogue/sampling.py",
        "raw[stride - 1::stride]",
        "raw[stride - 2::stride]",
        ("tests/test_protocol.py::TestResolver::test_every_key_is_its_round",
         "tests/test_grid.py::test_every_engine_gives_the_committed_grid"),
    ),
    # the samplers take Bob's bits k and l from each other's bit of the
    # round key, bits 5 and 4 of its word's top byte
    "session-bit-keys-swapped": Mutant(
        "src/qdialogue/sampling.py",
        "raw[stride - 1::stride].translate(table)",
        "raw[stride - 1::stride].translate(bytes(table[x ^ ((x >> 5 ^ x >> 4) & 1) * 0x30]"
        " for x in range(256)))",
        ("tests/test_grid.py::test_every_engine_gives_the_committed_grid",),
    ),
    # the float round's tap draw drops the word's low 24 bits, so it keeps
    # only the tap quarter: selections with thresholds finer than a quarter
    # pick the wrong code
    "round-word-tap-ignores-low-bits": Mutant(
        "src/qdialogue/protocol.py",
        "<< 24 | w & 0xFFFFFF)",
        "<< 24)",
        ("tests/test_protocol.py::TestRoundFollowsTree::test_every_leaf",),
    ),
    # the float round reads its tap quarter from the key's Bell field and its
    # Bell quarter from the tap field
    "key-tap-and-bell-fields-swapped": Mutant(
        "src/qdialogue/protocol.py",
        "(w >> 26 & 3) << 24 | w & 0xFFFFFF) * 2 + 1) / 2**27)\n    bell = _Draw(((w >> 24 & 3)",
        "(w >> 24 & 3) << 24 | w & 0xFFFFFF) * 2 + 1) / 2**27)\n    bell = _Draw(((w >> 26 & 3)",
        ("tests/test_protocol.py::TestRoundWord::test_oracle_word_leaf",),
    ),
    # the CLI imports the sampler itself, past the module attribute that
    # the benchmark's tracer wraps: the output stays the same
    "cli-mc-imports-the-sampler": Mutant(
        "src/qdialogue/cli.py",
        "stats = sys.modules[__name__].run_session(",
        "from .sampling import run_session; stats = run_session(",
        ("tests/test_tracer_cli.py::test_tracer_counts_the_session_of_a_cli_mc_call",),
    ),
    # a session's survival probability raised to every round, not to the
    # control rounds: the same at fraction 1, where the two counts agree
    "survival-over-every-round": Mutant(
        "src/qdialogue/sampling.py",
        "(1.0 - rate) ** control_rounds",
        "(1.0 - rate) ** n_rounds",
        ("tests/test_protocol.py::TestSessionTable::test_explicit_comparison",),
    ),
    # a string amplitude reaches complex(), which parses it: "1000" is |00>
    "state-takes-string-amplitudes": Mutant(
        "src/qdialogue/qcore.py",
        "if isinstance(a, str):",
        "if False:",
        ("tests/test_qcore.py::TestArgumentTypes::test_two_qubit_state_amplitudes",
         "tests/test_boundary_fuzz.py::test_returns_the_member_form_or_raises_value_or_type_error"),
    ),
    # a Bell measurement draws before it checks its state and convention,
    # so a rejected call advances the stream; valid calls draw the same
    "bell-draws-before-its-check": Mutant(
        "src/qdialogue/qcore.py",
        "    amplitudes = bell_decompose(state, convention)\n    u = rand.random()\n",
        "    u = rand.random()\n    amplitudes = bell_decompose(state, convention)\n",
        ("tests/test_qcore.py::TestArgumentTypes::test_rejected_bell_measurement_draws_nothing",),
    ),
    # Eve's measurement reads the amplitudes past the state check: None
    # raises AttributeError
    "t-measurement-checks-no-state": Mutant(
        "src/qdialogue/qcore.py",
        "a0, a1, a2, a3 = _amplitudes(state)\n    p0",
        "a0, a1, a2, a3 = state.amp\n    p0",
        ("tests/test_qcore.py::TestArgumentTypes::test_measure_t_computational",),
    ),
    # Eve's tap checks no state: where she does nothing it is forwarded as
    # it came, None included
    "eve-forwards-any-state": Mutant(
        "src/qdialogue/attacks.py",
        "    _amplitudes(state)\n",
        "",
        ("tests/test_attacks.py::TestNotAState::test_raises_type_error",),
    ),
}


def apply(root: Path, mutant: Mutant) -> None:
    """Replace the mutant's ``old`` text, which must occur once, in the copy
    at ``root``."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.file}: {mutant.old!r} occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))


def copy_checkout(root: Path) -> None:
    """Copy what the tests read into ``root``."""
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, root / part, ignore=shutil.ignore_patterns(
            "__pycache__", ".hypothesis", ".pytest_cache"))
    shutil.copy(ROOT / "pyproject.toml", root)


def run_pytest(root: Path, tests, **kwargs) -> subprocess.CompletedProcess:
    """One pytest process that runs ``tests`` in the copy at ``root``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root, env=env, stderr=subprocess.DEVNULL, **kwargs)


def unmutated_exit_codes(root: Path, tests) -> dict[str, int]:
    """Per test, the exit code its own pytest process would give in the copy
    at ``root`` (0 when every case passes, 1 when one fails), from one
    pytest process that runs them all and reports each case (``-rA``); a
    test with no case reported gets that process's exit code."""
    proc = run_pytest(root, ["-rA", *tests], stdout=subprocess.PIPE, text=True)
    outcomes = {test: set() for test in tests}
    for line in proc.stdout.splitlines():
        outcome, _, node = line.partition(" ")
        if outcome in ("PASSED", "FAILED", "ERROR"):
            test = node.split(" - ")[0].split("[")[0]
            if test in outcomes:
                outcomes[test].add(outcome)
    return {test: (proc.returncode or 1) if not seen else 0 if seen == {"PASSED"} else 1
            for test, seen in outcomes.items()}


def verdict(unmutated: int, mutated: int) -> str:
    if unmutated:
        return f"ERROR: fails unmutated (pytest exit {unmutated})"
    if not mutated:
        return "SURVIVED"
    if mutated != 1:
        return f"ERROR: pytest exit {mutated} on the mutated copy"
    return "killed"


def main() -> int:
    tests = list(dict.fromkeys(test for mutant in MUTANTS.values() for test in mutant.tests))
    with tempfile.TemporaryDirectory(prefix="qdialogue-mutant-") as tmp:
        copy_checkout(Path(tmp))
        unmutated = unmutated_exit_codes(Path(tmp), tests)
    failed = 0
    for name, mutant in MUTANTS.items():
        with tempfile.TemporaryDirectory(prefix="qdialogue-mutant-") as tmp:
            root = Path(tmp)
            copy_checkout(root)
            apply(root, mutant)
            mutated = {test: run_pytest(root, [test], stdout=subprocess.DEVNULL).returncode
                       for test in mutant.tests}
        for test in mutant.tests:
            result = verdict(unmutated[test], mutated[test])
            failed += result != "killed"
            print(f"{name}: {test}: {result}", flush=True)
    print(f"{len(MUTANTS)} mutants, {failed} checks not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
