"""Exact enumeration engine, case table, Monte Carlo, and claims report."""

import ast
import importlib
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest

from oracle import bell_basis, oracle_fold, oracle_message_errors
from qdialogue import analysis, exactstate, sampling
from qdialogue.analysis import (
    CaseDescriptor,
    DetectionReport,
    MessageErrorReport,
    compare_claims,
    enumerate_exact,
    message_error_rate,
    paper_case_table,
)
from qdialogue.exactstate import (
    ALL_BIT_TUPLES,
    ExactState,
    _gabs2,
    apply_pauli_t_exact,
    bell_weights_exact,
    exact_bell,
    measure_t_branches,
)
from qdialogue.model import (
    _ACTION,
    BELL_LABEL_ORDER,
    MEASURE,
    BellLabel,
    CoinIZ,
    Comparison,
    Convention,
    DisturbPauli,
    Fixed,
    InterceptMeasure,
    InvariantError,
    Mode,
    Passive,
    PauliCode,
    RandomSource,
    RoundConfig,
    Route,
    UniformAll4,
    control_detected,
    decode_message,
    expected_outcome,
)
from qdialogue.protocol import run_round
from qdialogue.qcore import bell_state
from qdialogue.sampling import McEstimate, monte_carlo, run_session

OE = Convention.OPERATOR_ENCODING
PP = Convention.PARITY_PHASE
HALF = Fraction(1, 2)

#: passive, intercept on both routes, disturb on both routes with every rule
ALL_STRATEGIES = [Passive(), InterceptMeasure(Route.B_TO_A),
                  InterceptMeasure(Route.A_TO_B)] + [
    DisturbPauli(route, sel)
    for route in Route
    for sel in (Fixed(0, 0), Fixed(0, 1), Fixed(1, 0), Fixed(1, 1),
                UniformAll4(), CoinIZ())
]
ALL_COMBOS = list(product((OE, PP), (OE, PP), ("converted", "strict-paper")))
#: the grid with the five strategies the oracle test first covered in front,
#: so that their test ids keep their indices
ORACLE_STRATEGIES = [
    InterceptMeasure(Route.B_TO_A),
    InterceptMeasure(Route.A_TO_B),
    DisturbPauli(selection=UniformAll4()),
    DisturbPauli(selection=CoinIZ()),
    DisturbPauli(selection=Fixed(1, 0)),
]
ORACLE_STRATEGIES += [s for s in ALL_STRATEGIES if s not in ORACLE_STRATEGIES]
#: the last seed is above 2**32, so all of MT19937's seed words are used
MC_SEEDS = (0, 7, 2**40 + 3)


def scalar_detections(attack, oc, ec, comparison, n, seed):
    """Running detection counts of the reference loop: one ``run_round``
    per control round on one stream, bits drawn first."""
    rng = RandomSource(seed)
    counts, detections = [], 0
    for _ in range(n):
        k, l, i, j = (int(rng.random() < 0.5) for _ in range(4))
        config = RoundConfig((k, l), (i, j), Mode.CONTROL, oc, ec, comparison)
        detections += run_round(config, attack, rng).detected
        counts.append(detections)
    return counts


def scalar_estimate(detections, n, seed):
    mean = detections / n
    return McEstimate(mean, math.sqrt(mean * (1.0 - mean) / n), n, seed,
                      RandomSource.GENERATOR_ID)


# The exact engine in Fraction arithmetic, as it was before its leaf walk and
# folds moved to integer masses over a power of two: the reference that the
# integer engine must reproduce field by field, dict key order included.

def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def reference_apply_pauli_t(state, code):
    out = [(0, 0)] * 4
    for t_bit in (0, 1):
        phase, r = _ACTION[(code.a, code.b, t_bit)]
        g = phase.as_gaussian()
        for h in (0, 2):
            x, y = out[h + r]
            gx, gy = _gmul(g, state.z[h + t_bit])
            out[h + r] = (x + gx, y + gy)
    return ExactState(tuple(out), state.half)


def reference_bell_weights(state, convention):
    out = {}
    for k, l in BELL_LABEL_ORDER:
        basis = exact_bell(convention, k, l)
        re = im = 0
        for x in range(4):
            gx, gy = _gmul((basis.z[x][0], -basis.z[x][1]), state.z[x])
            re, im = re + gx, im + gy
        out[BellLabel(k, l, convention)] = Fraction(re * re + im * im,
                                                    2 ** (state.half + 1))
    return out


@lru_cache(maxsize=None)
def reference_draw_weights(weights):
    return tuple(Fraction(w, sum(weights)) for w in weights)


def reference_home_branch(state):
    home0 = _gabs2(state.z[0]) + _gabs2(state.z[1])
    home1 = _gabs2(state.z[2]) + _gabs2(state.z[3])
    if home1 == 0:
        return "a"
    if home0 == 0:
        return "b"
    raise InvariantError("home qubit not definite after intercept")


def reference_tap(attack, route, branches):
    action = attack.tap(route)
    if action is None:
        return branches
    if action is MEASURE:
        return [
            (prob * Fraction(w, 2 ** state.half), collapsed,
             reference_home_branch(collapsed), sel)
            for prob, state, _branch, sel in branches
            for w, collapsed, _t in measure_t_branches(state)
        ]
    choices = tuple(zip(reference_draw_weights(action.weights), action.codes))
    return [
        (prob * w, reference_apply_pauli_t(state, PauliCode(u, v)), branch, (u, v))
        for prob, state, branch, _sel in branches
        for w, (u, v) in choices
    ]


def reference_leaves(attack, bits, convention):
    i, j, k, l = bits
    branches = [(Fraction(1), exact_bell(OE, 0, 0), "none", None)]
    for code, route in ((PauliCode(k, l), Route.B_TO_A),
                        (PauliCode(i, j), Route.A_TO_B)):
        branches = reference_tap(attack, route, [
            (p, reference_apply_pauli_t(s, code), br, sel)
            for p, s, br, sel in branches
        ])
    for prob, state, branch, sel in branches:
        yield prob, branch, sel, reference_bell_weights(state, convention)


def reference_enumerate_exact(attack, outcome_convention=OE,
                              expectation_convention=OE,
                              comparison=Comparison.CONVERTED, case_order=None):
    bit_tuples = tuple(case_order) if case_order is not None else ALL_BIT_TUPLES
    det_mass, tot_mass, sel_det, sel_tot = {}, {}, {}, {}
    case_weight = Fraction(1, len(bit_tuples))
    for bits in bit_tuples:
        i, j, k, l = bits
        config = RoundConfig((k, l), (i, j), Mode.CONTROL, outcome_convention,
                             expectation_convention, comparison)
        for prob, branch, sel, weights in reference_leaves(attack, bits,
                                                           outcome_convention):
            detected = sum(
                w for outcome, w in weights.items()
                if w and control_detected(config, outcome)
            )
            key = CaseDescriptor(i ^ k, j ^ l, i ^ k ^ j ^ l, branch)
            mass = case_weight * prob
            hit = mass * detected
            det_mass[key] = det_mass.get(key, 0) + hit
            tot_mass[key] = tot_mass.get(key, 0) + mass
            if sel is not None:
                sel_det[sel] = sel_det.get(sel, 0) + hit
                sel_tot[sel] = sel_tot.get(sel, 0) + mass
    report = DetectionReport(
        attack=attack,
        outcome_convention=outcome_convention,
        expectation_convention=expectation_convention,
        comparison=config.comparison,
        average=sum(det_mass.values()),
    )
    report.per_case = {key: det_mass[key] / tot_mass[key] for key in det_mass}
    for br in sorted({key.eve_branch for key in det_mass}):
        det = sum(det_mass[c] for c in det_mass if c.eve_branch == br)
        tot = sum(tot_mass[c] for c in tot_mass if c.eve_branch == br)
        report.branch_averages[br] = det / tot
    if sel_tot:
        report.per_selection = {
            uv: sel_det[uv] / sel_tot[uv] for uv in sorted(sel_tot)
        }
    return report


def reference_message_error_rate(attack):
    names = ("alice_to_bob", "bob_to_alice",
             "alice_bit0", "alice_bit1", "bob_bit0", "bob_bit1")
    errors = dict.fromkeys(names, Fraction(0))
    case_weight = Fraction(1, 16)
    for bits in ALL_BIT_TUPLES:
        i, j, k, l = bits
        config = RoundConfig(bob_bits=(k, l), alice_bits=(i, j))
        for prob, _branch, _sel, weights in reference_leaves(attack, bits, OE):
            mass = case_weight * prob
            for outcome, w in weights.items():
                if not w:
                    continue
                leaf = mass * w
                alice, bob = decode_message(config, outcome)
                wrong = (alice != (i, j), bob != (k, l),
                         alice[0] != i, alice[1] != j, bob[0] != k, bob[1] != l)
                for name, flag in zip(names, wrong):
                    if flag:
                        errors[name] += leaf
    return MessageErrorReport(
        attack=attack,
        alice_to_bob=errors.pop("alice_to_bob"),
        bob_to_alice=errors.pop("bob_to_alice"),
        per_bit=errors,
    )


def assert_same_report(report, want):
    """Equal field by field, every Fraction a Fraction, dicts in one order."""
    assert report == want
    for name in ("per_case", "branch_averages", "per_selection", "per_bit"):
        got, expected = getattr(report, name, None), getattr(want, name, None)
        assert list(got or ()) == list(expected or ())
        assert all(type(v) is Fraction for v in (got or {}).values())
    for name in ("average", "alice_to_bob", "bob_to_alice"):
        if hasattr(want, name):
            assert type(getattr(report, name)) is Fraction


@dataclass(frozen=True)
class StubSelection:
    """A selection rule with any codes and draw weights."""

    codes: tuple
    weights: tuple

    rule: ClassVar[str] = "stub"


class TestExactState:
    @pytest.mark.parametrize("conv", [OE, PP])
    @pytest.mark.parametrize("k,l", list(product((0, 1), repeat=2)))
    def test_exact_bell_matches_float_bell(self, conv, k, l):
        exact = exact_bell(conv, k, l)
        assert exact.norm_sq() == 1
        np.testing.assert_allclose(
            exact.amplitudes(), bell_state(conv, k, l).amp, atol=1e-15
        )
        # both layers read one table, so the oracle's vectors, built from
        # literal matrix products, are the independent reference; it divides
        # by np.sqrt(2), an ulp away from 2 ** -0.5
        reference = bell_basis(conv.value)[k, l]
        np.testing.assert_allclose(bell_state(conv, k, l).amp, reference, rtol=0, atol=1e-15)
        np.testing.assert_allclose(exact.amplitudes(), reference, rtol=0, atol=1e-15)

    def test_pauli_action_matches_float_path(self):
        from qdialogue.qcore import apply_pauli_t

        for k, l, a, b in product((0, 1), repeat=4):
            exact = apply_pauli_t_exact(exact_bell(OE, k, l), PauliCode(a, b))
            floaty = apply_pauli_t(bell_state(OE, k, l), PauliCode(a, b))
            np.testing.assert_allclose(exact.amplitudes(), floaty.amp, atol=1e-15)

    def test_measurement_branches_are_half_half(self):
        for k, l in product((0, 1), repeat=2):
            state = exact_bell(OE, k, l)
            branches = measure_t_branches(state)
            # integer weights over 2 ** state.half
            assert [type(w) for w, _, _ in branches] == [int, int]
            assert [Fraction(w, 2 ** state.half) for w, _, _ in branches] == [HALF, HALF]
            assert [t for _, _, t in branches] == [0, 1]
            for _, collapsed, _ in branches:
                assert collapsed.norm_sq() == 1

    @pytest.mark.parametrize("z,half", [
        (((1, 1), (1, 0), (1, 0), (0, 0)), 2),  # t = 0 weighs 3/4
        (((2, 0), (0, 0), (0, 0), (0, 0)), 1),  # t = 0 weighs 4/2, above 1
    ], ids=["three-quarters", "above-one"])
    def test_non_dyadic_measurement_raises(self, z, half):
        with pytest.raises(InvariantError, match="non-dyadic collapse"):
            measure_t_branches(ExactState(z, half))

    def test_bell_weights_exact_dyadic(self):
        state = apply_pauli_t_exact(exact_bell(OE, 0, 0), PauliCode(0, 1))
        weights = bell_weights_exact(state, OE)
        # integer numerators over 2 ** (half + 1): one outcome holds them all
        assert sum(weights) == 2 ** (state.half + 1)
        assert [w for w in weights if w] == [2 ** (state.half + 1)]


class TestPaperCaseTable:
    def test_per_case_values(self):
        report = paper_case_table()
        want = {(0, 0): Fraction(1), (0, 1): Fraction(1),
                (1, 0): HALF, (1, 1): HALF}
        assert len(report.per_case) == 8
        for case, d in report.per_case.items():
            assert case.eve_branch in ("a", "b")
            assert d == want[(case.m, case.n)]

    def test_branch_and_overall_averages(self):
        report = paper_case_table()
        assert report.branch_averages == {"a": Fraction(3, 4), "b": Fraction(3, 4)}
        assert report.average == Fraction(3, 4)
        # the stated computation: (1 + 1 + 1/2 + 1/2) / 4
        assert Fraction(1 + 1, 1) / 4 + (HALF + HALF) / 4 == Fraction(3, 4)


class TestEnumerateExact:
    def test_passive_all_zero_when_consistent(self):
        # converted comparison, or matching conventions: never a false alarm
        for oc, ec in product((OE, PP), repeat=2):
            report = enumerate_exact(Passive(), oc, ec, "converted")
            assert report.average == 0
            assert all(v == 0 for v in report.per_case.values())
        for conv in (OE, PP):
            report = enumerate_exact(Passive(), conv, conv, "strict-paper")
            assert report.average == 0

    def test_passive_false_alarms_under_mixed_strict_bookkeeping(self):
        # raw index comparison across conventions flags even an empty channel;
        # this is the bookkeeping artifact the claims report explains
        report = enumerate_exact(Passive(), OE, PP, "strict-paper")
        assert report.average == HALF

    def test_disturb_uniform4(self):
        report = enumerate_exact(DisturbPauli(selection=UniformAll4()))
        assert report.average == Fraction(3, 4)
        assert report.per_selection == {
            (0, 0): Fraction(0),
            (0, 1): Fraction(1),
            (1, 0): Fraction(1),
            (1, 1): Fraction(1),
        }

    @pytest.mark.parametrize("u,v", list(product((0, 1), repeat=2)))
    def test_disturb_fixed(self, u, v):
        report = enumerate_exact(DisturbPauli(selection=Fixed(u, v)))
        assert report.average == (Fraction(0) if (u, v) == (0, 0) else Fraction(1))

    def test_intercept_converted_oe_oe(self):
        # frozen from the independent brute-force oracle (also checked live
        # below): the convention-consistent average is 1/2 in every case
        report = enumerate_exact(InterceptMeasure(Route.B_TO_A))
        assert report.average == HALF
        assert all(v == HALF for v in report.per_case.values())

    @pytest.mark.parametrize("attack", ORACLE_STRATEGIES)
    @pytest.mark.parametrize("oc,ec,comp", ALL_COMBOS)
    def test_agrees_with_brute_force_oracle(self, attack, oc, ec, comp):
        report = enumerate_exact(attack, oc, ec, comp)
        avg, per_case, per_selection = oracle_fold(attack, oc.value, ec.value, comp)
        assert report.average == avg
        assert {(c.m, c.n, c.eve_branch): v for c, v in report.per_case.items()} == per_case
        # None exactly when Eve applies no Pauli
        assert report.per_selection == (per_selection or None)

    def test_summation_order_independent(self):
        rng = random.Random(5)
        attack = InterceptMeasure(Route.B_TO_A)
        base = enumerate_exact(attack, PP, OE, "strict-paper")
        for _ in range(5):
            order = list(ALL_BIT_TUPLES)
            rng.shuffle(order)
            permuted = enumerate_exact(attack, PP, OE, "strict-paper", case_order=order)
            assert permuted.average == base.average
            assert permuted.per_case == base.per_case

    def test_rejects_unknown_comparison(self):
        with pytest.raises(ValueError):
            enumerate_exact(Passive(), comparison="loose")

    @pytest.mark.parametrize("comparison", list(Comparison))
    def test_comparison_value_accepted(self, comparison):
        attack = InterceptMeasure()
        by_value = enumerate_exact(attack, PP, OE, comparison.value)
        by_member = enumerate_exact(attack, PP, OE, comparison)
        assert by_value.comparison is comparison
        assert by_value.average == by_member.average
        assert by_value.per_case == by_member.per_case

    @pytest.mark.parametrize("case_order,error", [
        ([(0, 0, 0, 0)], ValueError),
        (ALL_BIT_TUPLES[:15], ValueError),
        (ALL_BIT_TUPLES + ALL_BIT_TUPLES[:1], ValueError),
        (ALL_BIT_TUPLES[:15] + ALL_BIT_TUPLES[:1], ValueError),
        ([list(bits) for bits in ALL_BIT_TUPLES], ValueError),
        (ALL_BIT_TUPLES[:15] + ((1, 1, 1, 2),), ValueError),
        (ALL_BIT_TUPLES[:15] + ([1, 1, 1, 1],), TypeError),
        (5, TypeError),
        (["".join(map(str, bits)) for bits in ALL_BIT_TUPLES], ValueError),
        ((bits for bits in ALL_BIT_TUPLES[:15] + ALL_BIT_TUPLES[:1]), ValueError),
    ], ids=["one-tuple", "15-tuples", "17-tuples", "duplicate", "lists", "bit-of-2",
            "unhashable", "not-iterable", "16-strings", "generator-duplicate"])
    def test_rejects_bad_case_order(self, case_order, error):
        match = "case_order must be a permutation of all 16 bit tuples"
        with pytest.raises(error, match=match if error is ValueError else None):
            enumerate_exact(Passive(), case_order=case_order)

    @pytest.mark.parametrize("comparison", [["x"], "bogus"], ids=repr)
    def test_rejects_bad_comparison(self, comparison):
        with pytest.raises(ValueError, match="is not a valid Comparison"):
            enumerate_exact(Passive(), comparison=comparison)

    @pytest.mark.parametrize("make", [list, lambda order: (bits for bits in order)],
                             ids=["list", "generator"])
    def test_accepts_any_iterable_case_order(self, make):
        attack, order = InterceptMeasure(Route.A_TO_B), ALL_BIT_TUPLES[::-1]
        report = enumerate_exact(attack, PP, OE, "strict-paper", case_order=make(order))
        want = reference_enumerate_exact(attack, PP, OE, "strict-paper", case_order=order)
        assert_same_report(report, want)

    def test_branch_symmetry(self):
        for oc, ec, comp in [
            (OE, OE, "converted"),
            (PP, OE, "strict-paper"),
            (PP, PP, "converted"),
            (OE, PP, "strict-paper"),
        ]:
            report = enumerate_exact(InterceptMeasure(Route.B_TO_A), oc, ec, comp)
            for m, n in product((0, 1), repeat=2):
                a = report.per_case[CaseDescriptor(m, n, m ^ n, "a")]
                b = report.per_case[CaseDescriptor(m, n, m ^ n, "b")]
                assert a == b

    def test_route_symmetry(self):
        for oc, ec, comp in [
            (OE, OE, "converted"),
            (PP, OE, "strict-paper"),
            (PP, PP, "converted"),
        ]:
            b2a = enumerate_exact(InterceptMeasure(Route.B_TO_A), oc, ec, comp)
            a2b = enumerate_exact(InterceptMeasure(Route.A_TO_B), oc, ec, comp)
            assert b2a.average == a2b.average

    def test_joint_relabeling_invariance(self):
        # same bijection on both sides: every per-case value unchanged
        for attack in (InterceptMeasure(Route.B_TO_A),
                       DisturbPauli(selection=UniformAll4())):
            oe = enumerate_exact(attack, OE, OE, "converted")
            pp = enumerate_exact(attack, PP, PP, "converted")
            assert oe.per_case == pp.per_case
            assert oe.average == pp.average

    def test_one_sided_relabeling_changes_values(self):
        # regression pin of the disputed pair of figures
        strict_mixed = enumerate_exact(
            InterceptMeasure(Route.B_TO_A), PP, OE, "strict-paper"
        )
        consistent = enumerate_exact(InterceptMeasure(Route.B_TO_A), OE, OE, "converted")
        assert strict_mixed.average == Fraction(3, 4)
        assert consistent.average == HALF


class TestMonteCarlo:
    def test_passive_zero(self):
        est = monte_carlo(Passive(), n=1000, seed=4)
        assert est.mean == 0.0 and est.standard_error == 0.0
        assert est.n == 1000 and est.seed == 4

    def test_deterministic(self):
        a = monte_carlo(InterceptMeasure(Route.B_TO_A), n=2000, seed=9)
        b = monte_carlo(InterceptMeasure(Route.B_TO_A), n=2000, seed=9)
        assert a == b

    def test_tracks_exact_value(self):
        for attack in (InterceptMeasure(Route.B_TO_A),
                       DisturbPauli(selection=UniformAll4())):
            exact = float(enumerate_exact(attack).average)
            est = monte_carlo(attack, n=20_000, seed=13)
            assert abs(est.mean - exact) <= 3.0 * est.standard_error

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            monte_carlo(Passive(), n=0)

    @pytest.mark.parametrize("n", [True, False, 10.0, "10", None], ids=repr)
    def test_rejects_non_integer_rounds(self, n):
        with pytest.raises(TypeError):
            monte_carlo(Passive(), n=n)

    def test_integer_like_rounds_count_as_ints(self):
        est = monte_carlo(InterceptMeasure(), n=np.int64(50), seed=3)
        assert type(est.n) is int
        assert est == monte_carlo(InterceptMeasure(), n=50, seed=3)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            monte_carlo(Passive(), n=10, seed=seed)

    @pytest.mark.parametrize("seed", [3.7, True])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(TypeError):
            monte_carlo(InterceptMeasure(), n=50, seed=seed)

    def test_rejects_unknown_comparison(self):
        with pytest.raises(ValueError):
            monte_carlo(Passive(), comparison="loose", n=10)

    @pytest.mark.parametrize("comparison", list(Comparison))
    def test_comparison_value_accepted(self, comparison):
        attack = InterceptMeasure()
        assert monte_carlo(attack, PP, OE, comparison.value, n=200, seed=1) == (
            monte_carlo(attack, PP, OE, comparison, n=200, seed=1)
        )

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_bit_identical_to_scalar_reference(self, attack):
        # n = 1, a small odd n, and (on the last seed) a run crossing a chunk
        # boundary; each also resolved in chunks of 16 rounds
        for (oc, ec, comp), seed in product(ALL_COMBOS, MC_SEEDS):
            ns = [1, 37]
            if seed == MC_SEEDS[-1]:
                ns.append(sampling.MC_CHUNK_ROUNDS + 5)
            counts = scalar_detections(attack, oc, ec, comp, ns[-1], seed)
            for n in ns:
                want = scalar_estimate(counts[n - 1], n, seed)
                assert monte_carlo(attack, oc, ec, comp, n=n, seed=seed) == want
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(sampling, "MC_CHUNK_ROUNDS", 16)
                    assert monte_carlo(attack, oc, ec, comp, n=n, seed=seed) == want


def test_samplers_run_without_numpy():
    """Both samplers run in a fresh interpreter where importing numpy fails,
    and give what they give here."""
    program = ("import sys\n"
               "sys.modules['numpy'] = None\n"
               "from qdialogue import InterceptMeasure, RandomSource, monte_carlo, run_session\n"
               "print(repr(monte_carlo(InterceptMeasure(), n=3000, seed=2)))\n"
               "print(repr(run_session(3000, 0.3, RandomSource(2), InterceptMeasure())))\n")
    src = str(Path(__file__).parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        f"{monte_carlo(InterceptMeasure(), n=3000, seed=2)!r}\n"
        f"{run_session(3000, 0.3, RandomSource(2), InterceptMeasure())!r}\n"
    )


class TestMessageErrors:
    def test_passive_clean(self):
        report = message_error_rate(Passive())
        assert report.alice_to_bob == 0 and report.bob_to_alice == 0
        assert all(v == 0 for v in report.per_bit.values())

    def test_coin_iz_scrambles_pairs(self):
        # both bits flip together when sigma_z is drawn
        report = message_error_rate(DisturbPauli(selection=CoinIZ()))
        assert report.alice_to_bob == HALF
        assert report.bob_to_alice == HALF
        assert all(v == HALF for v in report.per_bit.values())

    def test_intercept_rates_match_oracle(self):
        # frozen from the oracle: decode error equals the converted OE/OE
        # detection probability, and each bit flips with probability 1/2
        report = message_error_rate(InterceptMeasure(Route.B_TO_A))
        assert report.alice_to_bob == HALF
        assert report.bob_to_alice == HALF
        assert all(v == HALF for v in report.per_bit.values())

    def test_fixed_11_flips_both_bits_always(self):
        report = message_error_rate(DisturbPauli(selection=Fixed(1, 1)))
        assert report.alice_to_bob == 1
        assert all(v == 1 for v in report.per_bit.values())

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_agrees_with_brute_force_oracle(self, attack):
        report = message_error_rate(attack)
        want = oracle_message_errors(attack)
        assert report.alice_to_bob == want.pop("alice_to_bob")
        assert report.bob_to_alice == want.pop("bob_to_alice")
        assert report.per_bit == want


class TestFractionReference:
    """The integer walk against the Fraction engine it replaced."""

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_detection_reports_equal_reference(self, attack):
        shuffled = random.Random(repr(attack)).sample(ALL_BIT_TUPLES, 16)
        for oc, ec, comp in ALL_COMBOS:
            for order in (None, shuffled, ALL_BIT_TUPLES[::-1]):
                assert_same_report(
                    enumerate_exact(attack, oc, ec, comp, case_order=order),
                    reference_enumerate_exact(attack, oc, ec, comp, case_order=order),
                )

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_message_reports_equal_reference(self, attack):
        assert_same_report(message_error_rate(attack),
                           reference_message_error_rate(attack))

    @pytest.mark.parametrize("route", list(Route))
    def test_no_rounding_with_a_third(self, route):
        # the float nearest 1/3 and its complement, as weights over 2**54
        third = Fraction(1 / 3)
        assert third.denominator == 2 ** 54
        weights = (third.numerator, 2 ** 54 - third.numerator)
        attack = DisturbPauli(route, StubSelection(((0, 0), (0, 1)), weights))
        flipped = 1 - third
        assert flipped.denominator == 2 ** 54
        for oc, ec, comp in ALL_COMBOS:
            assert_same_report(enumerate_exact(attack, oc, ec, comp),
                               reference_enumerate_exact(attack, oc, ec, comp))
        report = enumerate_exact(attack)
        assert report.average == flipped
        assert report.per_selection == {(0, 0): 0, (0, 1): 1}
        assert_same_report(message_error_rate(attack),
                           reference_message_error_rate(attack))


class TestConservation:
    """Each leaf's Bell weights and each bit tuple's Eve branches must carry
    all of their probability."""

    @staticmethod
    def drop_first_weight(state, convention):
        weights = list(bell_weights_exact(state, convention))
        weights[next(x for x, w in enumerate(weights) if w)] = 0
        return tuple(weights)

    @pytest.mark.parametrize("attack", [Passive(), InterceptMeasure(),
                                        DisturbPauli(selection=UniformAll4())],
                             ids=repr)
    @pytest.mark.usefixtures("fresh_walk")
    def test_lost_bell_weight_raises(self, monkeypatch, attack):
        monkeypatch.setattr(exactstate, "bell_weights_exact", self.drop_first_weight)
        with pytest.raises(InvariantError, match="Bell weights"):
            enumerate_exact(attack)
        with pytest.raises(InvariantError, match="Bell weights"):
            message_error_rate(attack)

    @pytest.mark.usefixtures("fresh_walk")
    def test_lost_measurement_branch_raises(self, monkeypatch):
        monkeypatch.setattr(exactstate, "measure_t_branches",
                            lambda state: measure_t_branches(state)[:1])
        for route in Route:
            with pytest.raises(InvariantError, match="Eve's branches"):
                enumerate_exact(InterceptMeasure(route))
            with pytest.raises(InvariantError, match="Eve's branches"):
                message_error_rate(InterceptMeasure(route))

    @pytest.mark.parametrize("route", list(Route))
    def test_lost_draw_branch_raises(self, route):
        # two draw weights but one code: the second branch's weight is lost
        attack = DisturbPauli(route, StubSelection(((0, 1),), (1, 1)))
        with pytest.raises(InvariantError, match="Eve's branches"):
            enumerate_exact(attack)

    @staticmethod
    def first_leaf_walk(walk, scale, first_masses):
        """``walk`` with every mass times ``scale`` and the Bell masses of
        its first leaf replaced by ``first_masses(their total)``."""
        def patched(attack, convention):
            top, groups = walk(attack, convention)
            groups = [[(branch, sel, tuple(scale * m for m in masses))
                       for branch, sel, masses in group] for group in groups]
            *head, masses = groups[0][0]
            groups[0][0] = (*head, first_masses(sum(masses)))
            return top, groups
        return patched

    def test_non_quarter_threshold_in_samplers_raises(self, fresh_walk, monkeypatch):
        # the samplers decide each draw by its quarter of [0, 1): a tap
        # threshold of 3/8, then a Bell threshold of 1/3 in an intercept walk
        # (scaled by 3, so that its masses split in thirds)
        three_eighths = DisturbPauli(selection=StubSelection(((0, 0), (0, 1)), (3, 5)))
        third_bell = self.first_leaf_walk(exactstate._walk, 3,
                                          lambda total: (total // 3, total - total // 3, 0, 0))
        for attack in (three_eighths, InterceptMeasure()):
            if attack is not three_eighths:
                monkeypatch.setattr(sampling, "_walk", third_bell)
            with pytest.raises(InvariantError, match="multiple of 1/4"):
                monte_carlo(attack, n=10)
            with pytest.raises(InvariantError, match="multiple of 1/4"):
                run_session(10, 0.5, RandomSource(0), attack)

    def test_near_quarter_threshold_in_samplers_raises(self, fresh_walk, monkeypatch):
        # a Bell threshold of 1/4 + 2**-61, whose float is 1/4: the check is
        # made on the walk's integers, not on floats
        near_quarter = self.first_leaf_walk(
            exactstate._walk, 2**60, lambda total: (total // 4 + 1, total - total // 4 - 1, 0, 0))
        monkeypatch.setattr(sampling, "_walk", near_quarter)
        with pytest.raises(InvariantError, match="multiple of 1/4"):
            monte_carlo(InterceptMeasure(), n=10)
        with pytest.raises(InvariantError, match="multiple of 1/4"):
            run_session(10, 0.5, RandomSource(0), InterceptMeasure())

    def test_tap_draw_on_some_bit_tuples_raises(self, fresh_walk, monkeypatch):
        # the samplers take the same draws every round
        walk = exactstate._walk

        def no_first_tap(attack, convention):
            top, (first, *groups) = walk(attack, convention)
            return top, (first[:1], *groups)

        monkeypatch.setattr(sampling, "_walk", no_first_tap)
        with pytest.raises(InvariantError, match="some bit tuples only"):
            monte_carlo(InterceptMeasure(), n=10)

    def test_non_dyadic_threshold_raises(self):
        # draw weights that sum to 3
        attack = DisturbPauli(selection=StubSelection(((0, 0), (0, 1)), (1, 2)))
        with pytest.raises(InvariantError, match="non-dyadic"):
            enumerate_exact(attack)


class TestWalkCache:
    """The exact walk is made and each exact configuration folded once, and
    what is cached cannot be changed through what the engines return."""

    @staticmethod
    def exact_grid_reports():
        """The 137 reports of one cycle of the benchmark's exact grid."""
        rng = random.Random(11)
        for attack in ALL_STRATEGIES:
            for oc, ec, comp in ALL_COMBOS:
                yield enumerate_exact(attack, oc, ec, comp,
                                      case_order=rng.sample(ALL_BIT_TUPLES, 16))
            yield message_error_rate(attack)
        yield paper_case_table()
        yield compare_claims()

    def test_one_walk_per_strategy_and_convention(self, fresh_walk):
        assert sum(1 for _ in self.exact_grid_reports()) == 137
        assert exactstate._walk.cache_info().misses == len(ALL_STRATEGIES) * 2 == 30
        assert sum(1 for _ in self.exact_grid_reports()) == 137
        assert exactstate._walk.cache_info().misses == 30

    def test_one_fold_per_configuration(self, fresh_walk):
        # the table and the claims fold configurations of the grid
        assert sum(1 for _ in self.exact_grid_reports()) == 137
        # message_error_rate reads the fold of the default bookkeeping
        assert analysis._detection_fold.cache_info().misses == len(ALL_STRATEGIES) * 8 == 120
        assert sum(1 for _ in self.exact_grid_reports()) == 137
        assert analysis._detection_fold.cache_info().misses == 120

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_message_errors_share_the_default_fold(self, fresh_walk, attack):
        enumerate_exact(attack)
        info = analysis._detection_fold.cache_info()
        message_error_rate(attack)
        assert analysis._detection_fold.cache_info() == info._replace(hits=info.hits + 1)

    def test_fixture_clears_every_cache(self, fresh_walk):
        # every module-level function of every qdialogue module under an
        # lru_cache or cache decorator
        caches = {}
        for path in sorted(Path(analysis.__file__).parent.glob("*.py")):
            module = importlib.import_module(
                "qdialogue" if path.stem == "__init__" else f"qdialogue.{path.stem}")
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                        ast.unparse(getattr(d, "func", d)).split(".")[-1] in ("lru_cache", "cache")
                        for d in node.decorator_list):
                    caches[f"{path.stem}.{node.name}"] = getattr(module, node.name)
        assert {"exactstate._walk", "exactstate._outcome_tallies", "analysis._detection_fold",
                "sampling._session_table", "model.label_map"} <= set(caches)
        sum(1 for _ in self.exact_grid_reports())
        monte_carlo(DisturbPauli(Route.A_TO_B, UniformAll4()), n=10)
        assert all(cache.cache_info().currsize for cache in caches.values())
        fresh_walk()
        assert {name: cache.cache_info().currsize for name, cache in caches.items()} == (
            dict.fromkeys(caches, 0))

    @pytest.mark.parametrize("order_seed", [0, 1, 2])
    def test_cold_and_warm_reports_agree(self, fresh_walk, order_seed):
        order = random.Random(order_seed).sample(ALL_BIT_TUPLES, 16)
        # each case (m, n) first appears where case_order first reaches it
        cases = list(dict.fromkeys((i ^ k, j ^ l) for i, j, k, l in order))
        for attack in ALL_STRATEGIES:
            for oc, ec, comp in ALL_COMBOS:
                fresh_walk()
                cold = enumerate_exact(attack, oc, ec, comp, case_order=order)
                warm = enumerate_exact(attack, oc, ec, comp, case_order=order)
                assert repr(warm) == repr(cold)
                assert list(dict.fromkeys((c.m, c.n) for c in warm.per_case)) == cases

    @pytest.mark.parametrize("convention", [OE, PP])
    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_walk_holds_only_tuples(self, attack, convention):
        def check(value):
            if isinstance(value, tuple):
                for item in value:
                    check(item)
            else:
                assert value is None or type(value) in (int, str)

        check(exactstate._walk(attack, convention))

    @pytest.mark.parametrize("order_seed", [0, 1, 2])
    def test_warm_report_takes_its_own_order(self, fresh_walk, order_seed):
        first = random.Random(order_seed).sample(ALL_BIT_TUPLES, 16)
        order = first[::-1]
        cases = list(dict.fromkeys((i ^ k, j ^ l) for i, j, k, l in order))
        assert cases != list(dict.fromkeys((i ^ k, j ^ l) for i, j, k, l in first))
        for attack in ALL_STRATEGIES:
            for oc, ec, comp in ALL_COMBOS:
                fresh_walk()
                cold = enumerate_exact(attack, oc, ec, comp, case_order=order)
                fresh_walk()
                enumerate_exact(attack, oc, ec, comp, case_order=first)
                warm = enumerate_exact(attack, oc, ec, comp, case_order=order)
                assert repr(warm) == repr(cold)
                assert list(dict.fromkeys((c.m, c.n) for c in warm.per_case)) == cases

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_folds_hold_only_immutable_values(self, attack):
        def check(value):
            if isinstance(value, tuple):
                for item in value:
                    check(item)
            else:
                assert value is None or type(value) in (int, str, bytes, Fraction,
                                                        CaseDescriptor)

        for oc, ec, comp in ALL_COMBOS:
            check(analysis._detection_fold(attack, oc, ec, Comparison(comp)))
            rows = exactstate._outcome_tallies(oc, ec, Comparison(comp))
            assert len(rows) == len(ALL_BIT_TUPLES)
            check(rows)

    def test_changing_results_changes_no_cache(self):
        attack = InterceptMeasure(Route.A_TO_B)
        report = enumerate_exact(attack, PP)
        kept = repr(report)
        report.per_case.clear()
        report.per_case[CaseDescriptor(0, 0, 0)] = Fraction(7)
        report.branch_averages["a"] = Fraction(7)
        assert repr(enumerate_exact(attack, PP)) == kept

        uniform4 = DisturbPauli(Route.A_TO_B, UniformAll4())
        report = enumerate_exact(uniform4, PP)
        kept = repr(report)
        report.per_selection[0, 0] = Fraction(7)
        del report.per_selection[1, 1]
        report.per_case.clear()
        report.branch_averages.clear()
        assert repr(enumerate_exact(uniform4, PP)) == kept

        errors = message_error_rate(attack)
        kept = repr(errors)
        errors.per_bit["alice_bit0"] = Fraction(7)
        del errors.per_bit["bob_bit1"]
        assert repr(message_error_rate(attack)) == kept

    def test_patch_after_a_warm_walk_raises(self, request, monkeypatch):
        # the fixture empties a cache that an earlier call filled
        attack = InterceptMeasure(Route.A_TO_B)
        enumerate_exact(attack)
        message_error_rate(attack)
        monte_carlo(attack, n=10)
        paper_case_table()
        compare_claims()
        request.getfixturevalue("fresh_walk")
        monkeypatch.setattr(exactstate, "bell_weights_exact",
                            TestConservation.drop_first_weight)
        with pytest.raises(InvariantError, match="Bell weights"):
            enumerate_exact(attack)
        with pytest.raises(InvariantError, match="Bell weights"):
            message_error_rate(attack)
        with pytest.raises(InvariantError, match="Bell weights"):
            monte_carlo(attack, n=10)
        with pytest.raises(InvariantError, match="Bell weights"):
            paper_case_table()
        with pytest.raises(InvariantError, match="Bell weights"):
            compare_claims()


class TestConventionValues:
    """Each engine takes a convention and a comparison as a member or as its
    string value, with one cache entry for both, and rejects anything else
    with the ValueError of its enum before any cache is filled."""

    ENGINES = {
        "enumerate_exact": (
            lambda oc, ec, comp: enumerate_exact(InterceptMeasure(), oc, ec, comp),
            analysis._detection_fold),
        "monte_carlo": (
            lambda oc, ec, comp: monte_carlo(InterceptMeasure(), oc, ec, comp,
                                             n=300, seed=2),
            sampling._session_table),
        "run_session": (
            lambda oc, ec, comp: run_session(300, 0.5, RandomSource(2), InterceptMeasure(),
                                             (oc, ec), comp),
            sampling._session_table),
        "run_round": (
            lambda oc, ec, comp: run_round(RoundConfig((0, 1), (1, 0), Mode.CONTROL,
                                                       oc, ec, comp),
                                           InterceptMeasure(), RandomSource(2)),
            expected_outcome),
    }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("oc,ec", list(product((OE, PP), repeat=2)))
    def test_value_shares_the_member_entry(self, fresh_walk, engine, oc, ec):
        run, cache = self.ENGINES[engine]
        cache.cache_clear()
        by_member = run(oc, ec, Comparison.STRICT_PAPER)
        by_value = run(oc.value, ec.value, "strict-paper")
        assert repr(by_value) == repr(by_member)
        assert cache.cache_info().misses == 1

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("oc,ec,comp,enum,bad", [
        ("bogus", OE, "strict-paper", "Convention", "bogus"),
        (OE, "bogus", "strict-paper", "Convention", "bogus"),
        ("OE", "oe", "strict-paper", "Convention", "OE"),
        (["oe"], OE, "strict-paper", "Convention", ["oe"]),
        (OE, None, "strict-paper", "Convention", None),
        (1, OE, "strict-paper", "Convention", 1),
        (OE, PP, "lenient", "Comparison", "lenient"),
        (OE, PP, ["converted"], "Comparison", ["converted"]),
        (OE, PP, None, "Comparison", None),
        (OE, PP, 1, "Comparison", 1),
    ], ids=["outcome", "expectation", "name", "unhashable", "none", "int",
            "comparison", "comparison-unhashable", "comparison-none", "comparison-int"])
    def test_rejects_unknown_value(self, fresh_walk, engine, oc, ec, comp, enum, bad):
        run, cache = self.ENGINES[engine]
        cache.cache_clear()
        with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not a valid {enum}$"):
            run(oc, ec, comp)
        assert cache.cache_info().misses == 0

    def test_report_carries_the_member(self):
        report = enumerate_exact(Passive(), "pp", "oe")
        assert report.outcome_convention is PP
        assert report.expectation_convention is OE


class TestCompareClaims:
    def test_averages_are_those_of_the_reports(self):
        report = compare_claims()
        assert report.strict_paper_average == paper_case_table().average
        assert report.consistent_value == enumerate_exact(
            InterceptMeasure(Route.B_TO_A), OE, OE, "converted").average

    def test_figures(self):
        report = compare_claims()
        assert report.paper_claim == Fraction(3, 4)
        assert report.cai_claim == HALF
        assert report.strict_paper_average == Fraction(3, 4)
        assert report.consistent_value == enumerate_exact(
            InterceptMeasure(Route.B_TO_A)
        ).average

    def test_no_editorial_ruling(self):
        report = compare_claims()
        assert "No ruling" in report.explanation
