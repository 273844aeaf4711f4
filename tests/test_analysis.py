"""Exact enumeration engine, case table, Monte Carlo, and claims report."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from oracle import oracle_detection
from qdialogue import analysis
from qdialogue.analysis import (
    ALL_BIT_TUPLES,
    CaseDescriptor,
    McEstimate,
    compare_claims,
    enumerate_exact,
    message_error_rate,
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
from qdialogue.exactstate import (
    apply_pauli_t_exact,
    bell_weights_exact,
    exact_bell,
    measure_t_branches,
)
from qdialogue.protocol import Mode, RoundConfig, run_round
from qdialogue.qcore import Convention, PauliCode, RandomSource, bell_state

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


class TestExactState:
    @pytest.mark.parametrize("conv", [OE, PP])
    @pytest.mark.parametrize("k,l", list(product((0, 1), repeat=2)))
    def test_exact_bell_matches_float_bell(self, conv, k, l):
        exact = exact_bell(conv, k, l)
        assert exact.norm_sq() == 1
        np.testing.assert_allclose(
            exact.amplitudes(), bell_state(conv, k, l).amp, atol=1e-15
        )

    def test_pauli_action_matches_float_path(self):
        from qdialogue.qcore import apply_pauli_t

        for k, l, a, b in product((0, 1), repeat=4):
            exact = apply_pauli_t_exact(exact_bell(OE, k, l), PauliCode(a, b))
            floaty = apply_pauli_t(bell_state(OE, k, l), PauliCode(a, b))
            np.testing.assert_allclose(exact.amplitudes(), floaty.amp, atol=1e-15)

    def test_measurement_branches_are_half_half(self):
        for k, l in product((0, 1), repeat=2):
            branches = measure_t_branches(exact_bell(OE, k, l))
            assert [p for p, _, _ in branches] == [HALF, HALF]
            for _, collapsed, _ in branches:
                assert collapsed.norm_sq() == 1

    def test_bell_weights_exact_dyadic(self):
        state = apply_pauli_t_exact(exact_bell(OE, 0, 0), PauliCode(0, 1))
        weights = bell_weights_exact(state, OE)
        assert sum(weights.values()) == 1
        assert {w for w in weights.values() if w} == {Fraction(1)}


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

    @pytest.mark.parametrize(
        "attack",
        [
            InterceptMeasure(Route.B_TO_A),
            InterceptMeasure(Route.A_TO_B),
            DisturbPauli(selection=UniformAll4()),
            DisturbPauli(selection=CoinIZ()),
            DisturbPauli(selection=Fixed(1, 0)),
        ],
    )
    @pytest.mark.parametrize(
        "oc,ec,comp",
        [
            (OE, OE, "converted"),
            (PP, PP, "converted"),
            (PP, OE, "strict-paper"),
            (OE, PP, "strict-paper"),
        ],
    )
    def test_agrees_with_brute_force_oracle(self, attack, oc, ec, comp):
        report = enumerate_exact(attack, oc, ec, comp)
        avg, per_case = oracle_detection(attack, oc.value, ec.value, comp)
        assert report.average == avg
        assert {(c.m, c.n, c.eve_branch): v for c, v in report.per_case.items()} == per_case

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

    def test_rejects_bad_case_order(self):
        with pytest.raises(ValueError):
            enumerate_exact(Passive(), case_order=[(0, 0, 0, 0)])

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

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_out_of_range_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            monte_carlo(Passive(), n=10, seed=seed)

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_bit_identical_to_scalar_reference(self, attack):
        # n = 1, a small odd n, and (on the last seed) a run crossing a chunk
        # boundary; each also resolved in chunks of 16 rounds
        for (oc, ec, comp), seed in product(ALL_COMBOS, MC_SEEDS):
            ns = [1, 37]
            if seed == MC_SEEDS[-1]:
                ns.append(analysis.MC_CHUNK_ROUNDS + 5)
            counts = scalar_detections(attack, oc, ec, comp, ns[-1], seed)
            for n in ns:
                want = scalar_estimate(counts[n - 1], n, seed)
                assert monte_carlo(attack, oc, ec, comp, n=n, seed=seed) == want
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(analysis, "MC_CHUNK_ROUNDS", 16)
                    assert monte_carlo(attack, oc, ec, comp, n=n, seed=seed) == want

    @pytest.mark.parametrize("seed", MC_SEEDS)
    def test_chunked_uniforms_replay_the_stream(self, seed):
        bulk, scalar = RandomSource(seed), RandomSource(seed)
        for count in (1, 5, 6 * analysis.MC_CHUNK_ROUNDS):
            assert bulk.uniforms(count).tolist() == [
                scalar.random() for _ in range(count)
            ]
            assert bulk._rng.getstate() == scalar._rng.getstate()


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


class TestCompareClaims:
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
