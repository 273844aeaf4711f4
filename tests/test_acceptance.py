"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 6 simulates about 12 million Monte Carlo rounds.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np

from oracle import oracle_detection
from qdialogue.analysis import (
    CaseDescriptor,
    compare_claims,
    enumerate_exact,
    monte_carlo,
    paper_case_table,
)
from qdialogue.attacks import (
    CoinIZ,
    DisturbPauli,
    Fixed,
    InterceptMeasure,
    Passive,
    Route,
    UniformAll4,
)
from qdialogue.cli import run_cli
from qdialogue.protocol import Mode, RoundConfig, run_round
from qdialogue.qcore import (
    Convention,
    PauliCode,
    RandomSource,
    TwoQubitState,
    bell_decompose,
    pauli_action_closed_form,
    pauli_compose,
    pauli_matrix,
)

OE = Convention.OPERATOR_ENCODING
PP = Convention.PARITY_PHASE
TOL = 1e-12
ALL_CODES = [PauliCode(a, b) for a in (0, 1) for b in (0, 1)]


def test_criterion_1_identity_suite():
    # closed form == matrix action, exactly, all 8 (code, bit) pairs
    for code in ALL_CODES:
        m = pauli_matrix(code)
        for bit in (0, 1):
            phase, r = pauli_action_closed_form(code, bit)
            col = np.zeros(2, dtype=complex)
            col[r] = phase.as_complex()
            assert (m[:, bit] == col).all()
    # composition law with exact phases, all 16 pairs
    for c1, c2 in product(ALL_CODES, repeat=2):
        out = pauli_compose(c1, c2)
        assert (
            pauli_matrix(c1) @ pauli_matrix(c2)
            == out.phase.as_complex() * pauli_matrix(out.code)
        ).all()
    # computational-basis decomposition identity, all 4 |mu nu>, within 1e-12
    for mu, nu in product((0, 1), repeat=2):
        amp = [0.0] * 4
        amp[2 * mu + nu] = 1.0
        coeffs = bell_decompose(TwoQubitState(amp), PP)
        for label, c in coeffs.items():
            if label.l == mu ^ nu:
                want = ((-1) ** mu if label.k else 1) / math.sqrt(2)
            else:
                want = 0.0
            assert abs(c - want) <= TOL
    print("PASS criterion 1: closed forms, composition phases, basis identity")


def test_criterion_2_no_eve_determinism():
    for i, j, k, l in product((0, 1), repeat=4):
        t = run_round(
            RoundConfig((k, l), (i, j), Mode.MESSAGE), Passive(), RandomSource(0)
        )
        assert t.bell_outcome.bits() == (i ^ k, j ^ l)
        assert abs(t.bell_probability - 1.0) <= TOL
        assert t.decoded_alice_bits == (i, j)
        assert t.decoded_bob_bits == (k, l)
        c = run_round(
            RoundConfig((k, l), (i, j), Mode.CONTROL), Passive(), RandomSource(0)
        )
        assert c.detected is False
    print("PASS criterion 2: undisturbed rounds deterministic, detection 0")


def test_criterion_3_paper_table_reproduction():
    report = paper_case_table()
    for branch in ("a", "b"):
        assert report.per_case[CaseDescriptor(0, 0, 0, branch)] == Fraction(1)
        assert report.per_case[CaseDescriptor(0, 1, 1, branch)] == Fraction(1)
        assert report.per_case[CaseDescriptor(1, 0, 1, branch)] == Fraction(1, 2)
        assert report.per_case[CaseDescriptor(1, 1, 0, branch)] == Fraction(1, 2)
        assert report.branch_averages[branch] == Fraction(3, 4)
    assert report.average == Fraction(3, 4)
    print("PASS criterion 3: case table 1, 1, 1/2, 1/2 with average 3/4, both branches")


def test_criterion_4_disturbance_attack():
    assert enumerate_exact(
        DisturbPauli(selection=UniformAll4())
    ).average == Fraction(3, 4)
    for u, v in product((0, 1), repeat=2):
        want = Fraction(0) if (u, v) == (0, 0) else Fraction(1)
        assert enumerate_exact(DisturbPauli(selection=Fixed(u, v))).average == want
    print("PASS criterion 4: random-Pauli disturbance 3/4; fixed (u,v) 1 - [u=v=0]")


def test_criterion_5_consistency_adjudication():
    report = enumerate_exact(InterceptMeasure(Route.B_TO_A), OE, OE, "converted")
    avg, per_case = oracle_detection(
        InterceptMeasure(Route.B_TO_A), "oe", "oe", "converted"
    )
    assert report.average == avg
    assert {
        (c.m, c.n, c.eve_branch): v for c, v in report.per_case.items()
    } == per_case
    claims = compare_claims()
    assert claims.strict_paper_average == Fraction(3, 4)
    assert claims.cai_claim == Fraction(1, 2)
    assert claims.consistent_value == report.average
    print(
        "PASS criterion 5: brute-force oracle agrees exactly "
        f"(consistent-convention average = {report.average}); claims reported side by side"
    )


MC_CONFIGS = [
    ("passive", Passive()),
    ("intercept-b2a", InterceptMeasure(Route.B_TO_A)),
    ("intercept-a2b", InterceptMeasure(Route.A_TO_B)),
    ("disturb-uniform4", DisturbPauli(selection=UniformAll4())),
    ("disturb-coin-iz", DisturbPauli(selection=CoinIZ())),
    ("disturb-fixed-11", DisturbPauli(selection=Fixed(1, 1))),
]

SWEEP_ATTACKS = [
    ("intercept-b2a", InterceptMeasure(Route.B_TO_A)),
    ("disturb-uniform4", DisturbPauli(selection=UniformAll4())),
    ("disturb-coin-iz", DisturbPauli(selection=CoinIZ())),
]


def test_criterion_6_monte_carlo_agreement():
    for name, attack in MC_CONFIGS:
        exact = float(enumerate_exact(attack).average)
        est = monte_carlo(attack, n=1_000_000, seed=2024)
        if est.standard_error == 0.0:
            assert est.mean == exact, name
        else:
            assert abs(est.mean - exact) <= 3.0 * est.standard_error, (
                f"{name}: {est.mean} vs {exact}"
            )
    for name, attack in SWEEP_ATTACKS:
        p = float(enumerate_exact(attack).average)
        se = math.sqrt(p * (1.0 - p) / 100_000)
        hits = sum(
            abs(monte_carlo(attack, n=100_000, seed=seed).mean - p) <= 4.0 * se
            for seed in range(20)
        )
        assert hits >= 19, f"{name}: only {hits}/20 within 4 standard errors"
    print("PASS criterion 6: 10^6-round runs within 3 SE; 20-seed sweeps >= 19/20 at 4 SE")


def test_criterion_7_symmetry_properties():
    pairings = [
        (OE, OE, "converted"),
        (PP, PP, "converted"),
        (PP, OE, "strict-paper"),
        (OE, PP, "strict-paper"),
    ]
    for oc, ec, comp in pairings:
        report = enumerate_exact(InterceptMeasure(Route.B_TO_A), oc, ec, comp)
        for m, n in product((0, 1), repeat=2):
            key_a = CaseDescriptor(m, n, m ^ n, "a")
            key_b = CaseDescriptor(m, n, m ^ n, "b")
            assert report.per_case[key_a] == report.per_case[key_b]
        a2b = enumerate_exact(InterceptMeasure(Route.A_TO_B), oc, ec, comp)
        assert report.average == a2b.average
    for attack in (InterceptMeasure(Route.B_TO_A), DisturbPauli(selection=UniformAll4())):
        oe = enumerate_exact(attack, OE, OE, "converted")
        pp = enumerate_exact(attack, PP, PP, "converted")
        assert oe.per_case == pp.per_case and oe.average == pp.average
    print("PASS criterion 7: branch, route, and joint-relabeling symmetries hold")


def test_criterion_8_reproducibility(capsys):
    invocations = [
        ("exact", "--attack", "disturb", "--selection", "uniform4"),
        ("exact", "--attack", "intercept", "--format", "csv"),
        ("table",),
        ("mc", "--attack", "intercept", "--rounds", "2000", "--seed", "99"),
        ("round", "--bits", "0111", "--attack", "intercept", "--mode", "control",
         "--seed", "3"),
        ("compare",),
    ]
    for argv in invocations:
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        second = capsys.readouterr().out
        assert first == second, argv
    print("PASS criterion 8: identical invocations are byte-identical")
