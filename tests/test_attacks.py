"""Eve's taps: intercept collapse branches and Pauli disturbance."""

import math
from fractions import Fraction
from itertools import accumulate, product

import pytest

from qdialogue import exactstate
from qdialogue.analysis import enumerate_exact, message_error_rate
from qdialogue.attacks import AppliedPauli, MeasuredBranch, apply_eve
from qdialogue.exactstate import ExactState
from qdialogue.model import (
    MEASURE,
    CoinIZ,
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
    pauli_action_closed_form,
)
from qdialogue.protocol import run_round
from qdialogue.qcore import (
    ALG_TOL,
    SQRT_HALF,
    TwoQubitState,
    apply_pauli_t,
    bell_state,
    equal_up_to_global_phase,
)
from qdialogue.sampling import monte_carlo, run_session

OE = Convention.OPERATOR_ENCODING
#: a travel-qubit collapse that leaves the home qubit in superposition
HOME_UNDETERMINED = TwoQubitState((SQRT_HALF, 0, SQRT_HALF, 0))


def collapsed_product(h_bit, code, t_in):
    """|h>_h C_{code}|t_in>_t as a state, with exact closed-form phase."""
    phase, t_out = pauli_action_closed_form(code, t_in)
    amp = [0j] * 4
    amp[2 * h_bit + t_out] = phase.as_complex()
    return TwoQubitState(amp)


def test_passive_is_identity():
    s = bell_state(OE, 1, 0)
    out, rec = apply_eve(Passive(), Route.B_TO_A, s, RandomSource(0))
    assert out.amp == s.amp and rec is None


def test_route_mismatch_is_noop():
    s = bell_state(OE, 0, 1)
    rng = RandomSource(0)
    out, rec = apply_eve(InterceptMeasure(Route.B_TO_A), Route.A_TO_B, s, rng)
    assert out.amp == s.amp and rec is None
    out, rec = apply_eve(DisturbPauli(Route.A_TO_B, Fixed(1, 1)), Route.B_TO_A, s, rng)
    assert out.amp == s.amp and rec is None


class TestInterceptMeasure:
    @pytest.mark.parametrize("k,l", list(product((0, 1), repeat=2)))
    def test_branches_and_collapse(self, k, l):
        strategy = InterceptMeasure(Route.B_TO_A)
        code = PauliCode(k, l)
        seen = set()
        for seed in range(40):
            out, rec = apply_eve(
                strategy, Route.B_TO_A, bell_state(OE, k, l), RandomSource(seed)
            )
            assert isinstance(rec, MeasuredBranch)
            seen.add(rec.branch)
            # branch a: |0>_h C|1>_t, branch b: |1>_h C|0>_t, up to phase
            if rec.branch == "a":
                want = collapsed_product(0, code, 1)
            else:
                want = collapsed_product(1, code, 0)
            assert equal_up_to_global_phase(out, want)
        assert seen == {"a", "b"}

    @pytest.mark.parametrize("k,l", list(product((0, 1), repeat=2)))
    def test_branch_probability_is_half(self, k, l):
        # both t outcomes carry Born weight exactly 1/2
        s = bell_state(OE, k, l)
        p0 = abs(s.amp[0]) ** 2 + abs(s.amp[2]) ** 2
        assert abs(p0 - 0.5) <= ALG_TOL

    def test_record_t_outcome_vs_branch(self):
        # for odd codes the a-branch t outcome is 0, not 1: both are recorded
        out, rec = apply_eve(
            InterceptMeasure(Route.B_TO_A),
            Route.B_TO_A,
            bell_state(OE, 0, 1),
            RandomSource(1),
        )
        if rec.branch == "a":
            assert rec.t_outcome == 0
        else:
            assert rec.t_outcome == 1


class CountingSource:
    """Returns ``u`` on every draw and counts the draws."""

    def __init__(self, u):
        self.u, self.draws = u, 0

    def random(self):
        self.draws += 1
        return self.u


#: every quarter of [0, 1), each float next to it, and the largest draw
BOUNDARY_DRAWS = sorted({
    x for q in (0.0, 0.25, 0.5, 0.75)
    for x in (math.nextafter(q, -1.0), q, math.nextafter(q, 1.0)) if x >= 0.0
} | {1.0 - 2.0 ** -53})


class TestDisturbPauli:
    @pytest.mark.parametrize("selection", [Fixed(1, 0), UniformAll4(), CoinIZ()], ids=repr)
    @pytest.mark.parametrize("u", BOUNDARY_DRAWS)
    def test_draw_picks_by_the_threshold_rule(self, selection, u):
        # the code after every threshold, a cumulative weight over the
        # total, at or below u; a rule with one code takes no draw
        total = sum(selection.weights)
        below = sum(Fraction(c, total) <= u for c in accumulate(selection.weights[:-1]))
        source = CountingSource(u)
        _, rec = apply_eve(DisturbPauli(Route.A_TO_B, selection), Route.A_TO_B,
                           bell_state(OE, 0, 0), source)
        assert (rec.u, rec.v) == selection.codes[below]
        assert source.draws == (len(selection.codes) > 1)

    def test_fixed_applies_exactly(self):
        s = bell_state(OE, 1, 1)
        out, rec = apply_eve(
            DisturbPauli(Route.A_TO_B, Fixed(1, 0)), Route.A_TO_B, s, RandomSource(0)
        )
        assert rec == AppliedPauli(1, 0)
        want = apply_pauli_t(s, PauliCode(1, 0))
        assert out.amp == want.amp

    def test_uniform4_covers_all_codes(self):
        seen = set()
        for seed in range(60):
            _, rec = apply_eve(
                DisturbPauli(Route.A_TO_B, UniformAll4()),
                Route.A_TO_B,
                bell_state(OE, 0, 0),
                RandomSource(seed),
            )
            seen.add((rec.u, rec.v))
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_coin_iz_draws_only_identity_or_z(self):
        seen = set()
        for seed in range(40):
            _, rec = apply_eve(
                DisturbPauli(Route.A_TO_B, CoinIZ()),
                Route.A_TO_B,
                bell_state(OE, 0, 0),
                RandomSource(seed),
            )
            seen.add((rec.u, rec.v))
        assert seen == {(0, 0), (1, 1)}

    def test_norm_preserved(self):
        for seed in range(20):
            out, _ = apply_eve(
                DisturbPauli(Route.B_TO_A, UniformAll4()),
                Route.B_TO_A,
                bell_state(OE, 1, 0),
                RandomSource(seed),
            )
            assert abs(out.norm_sq() - 1.0) <= ALG_TOL

    @pytest.mark.parametrize("route", [Route.B_TO_A, Route.A_TO_B])
    @pytest.mark.parametrize("u,v", list(product((0, 1), repeat=2)))
    def test_commutes_to_shifted_bell_state(self, route, u, v):
        # disturbed round lands on Psi_{i^k^u, j^l^v} up to phase, either route
        for i, j, k, l in product((0, 1), repeat=4):
            s = apply_pauli_t(bell_state(OE, 0, 0), PauliCode(k, l))
            if route is Route.B_TO_A:
                s = apply_pauli_t(s, PauliCode(u, v))
                s = apply_pauli_t(s, PauliCode(i, j))
            else:
                s = apply_pauli_t(s, PauliCode(i, j))
                s = apply_pauli_t(s, PauliCode(u, v))
            want = bell_state(OE, i ^ k ^ u, j ^ l ^ v)
            assert equal_up_to_global_phase(s, want)


class TestNotAStrategy:
    """Every engine raises TypeError for a value that is not an Eve
    strategy, and caches nothing for it."""

    ENGINES = {
        "enumerate_exact": enumerate_exact,
        "message_error_rate": message_error_rate,
        "monte_carlo": lambda eve: monte_carlo(eve, n=10),
        "run_session": lambda eve: run_session(10, 0.5, RandomSource(0), eve),
        "run_round": lambda eve: run_round(RoundConfig((0, 1), (1, 0)), eve, RandomSource(0)),
        "apply_eve": lambda eve: apply_eve(eve, Route.A_TO_B, bell_state(OE, 0, 0),
                                           RandomSource(0)),
    }

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("eve", [None, "intercept", UniformAll4()], ids=repr)
    def test_raises_type_error(self, fresh_walk, engine, eve):
        with pytest.raises(TypeError, match="not an Eve strategy"):
            self.ENGINES[engine](eve)
        assert exactstate._walk.cache_info().currsize == 0


class TestNotAState:
    """``apply_eve`` raises a TypeError that names the state, whether Eve
    acts at the tap or not."""

    @pytest.mark.parametrize("route", Route)
    @pytest.mark.parametrize("eve", [Passive(), InterceptMeasure(), DisturbPauli()],
                             ids=lambda eve: type(eve).__name__)
    @pytest.mark.parametrize("bad", [None, bell_state(OE, 0, 0).amp], ids=["None", "amp"])
    def test_raises_type_error(self, bad, eve, route):
        with pytest.raises(TypeError, match="^state must be a TwoQubitState, not "):
            apply_eve(eve, route, bad, RandomSource(0))


class TestRouteValues:
    """A strategy takes its route as a member or as its string value, which
    build equal strategies with one cache entry; anything else raises the
    ValueError of ``Route``."""

    @pytest.mark.parametrize("route", list(Route), ids=lambda r: r.value)
    def test_value_builds_the_member_strategy(self, route):
        for make in (InterceptMeasure, DisturbPauli,
                     lambda r: DisturbPauli(r, CoinIZ())):
            by_value, by_member = make(route.value), make(route)
            assert by_value.route is route
            assert by_value == by_member and hash(by_value) == hash(by_member)
            assert repr(by_value) == repr(by_member)

    def test_value_gives_the_member_results(self, fresh_walk):
        assert enumerate_exact(InterceptMeasure("b2a")).average == Fraction(1, 2)
        assert enumerate_exact(DisturbPauli("a2b")).average == Fraction(3, 4)
        assert exactstate._walk.cache_info().currsize == 2
        for route in Route:
            assert enumerate_exact(InterceptMeasure(route.value)) == (
                enumerate_exact(InterceptMeasure(route)))
            assert monte_carlo(InterceptMeasure(route.value), n=1000, seed=4) == (
                monte_carlo(InterceptMeasure(route), n=1000, seed=4))
        assert monte_carlo(InterceptMeasure("a2b"), n=1000, seed=4).mean > 0.4
        assert exactstate._walk.cache_info().currsize == 3

    BAD = [None, "B2A", "b2a ", 1, ["b2a"], Convention.PARITY_PHASE]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_rejects_other_values(self, bad):
        with pytest.raises(ValueError, match="not a valid Route"):
            InterceptMeasure(bad)
        with pytest.raises(ValueError, match="not a valid Route"):
            DisturbPauli(bad)
        with pytest.raises(ValueError, match="not a valid Route"):
            DisturbPauli(bad, Fixed(0, 1))

    @pytest.mark.parametrize("route", list(Route), ids=lambda r: r.value)
    def test_tap_takes_the_value(self, route):
        # the value names its own tap, not the other one
        other, = set(Route) - {route}
        intercept, fixed = InterceptMeasure(route), DisturbPauli(route, Fixed(0, 1))
        assert intercept.tap(route.value) is intercept.tap(route) is MEASURE
        assert fixed.tap(route.value) == fixed.tap(route) == Fixed(0, 1)
        for strategy in (intercept, fixed):
            assert strategy.tap(other.value) is strategy.tap(other) is None
        assert Passive().tap(route.value) is None

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_tap_rejects_other_values(self, bad):
        for strategy in (Passive(), InterceptMeasure(), DisturbPauli(selection=Fixed(0, 1))):
            with pytest.raises(ValueError, match="not a valid Route"):
                strategy.tap(bad)


class TestSelectionValues:
    """A disturbance takes any rule instance with ``codes`` and ``weights``
    as its selection; anything else, a rule's class included, raises
    TypeError when it is built, not from inside an engine and not as the
    passive answer."""

    @pytest.mark.parametrize("bad", [None, "uniform4", (1, 1), Route.A_TO_B, InterceptMeasure()],
                             ids=repr)
    def test_rejects_a_value_that_is_not_a_rule(self, bad):
        for route in Route:
            with pytest.raises(TypeError, match="selection must have codes and weights"):
                DisturbPauli(route, bad)
        with pytest.raises(TypeError, match="selection must have codes and weights"):
            DisturbPauli(selection=bad)

    @pytest.mark.parametrize("rule", [Fixed, UniformAll4, CoinIZ], ids=lambda rule: rule.__name__)
    def test_rejects_a_rule_class(self, rule):
        # UniformAll4 and CoinIZ carry codes and weights on the class itself
        for route in Route:
            with pytest.raises(TypeError, match="not the class"):
                DisturbPauli(route, rule)


class TestHomeQubitInvariant:
    """An intercept collapse that leaves the home qubit undetermined raises
    InvariantError on the sampled path and on the table path alike."""

    @pytest.fixture
    def broken_collapse(self, monkeypatch, fresh_walk):
        # the float collapse of run_round, and the exact one of the walk
        # both samplers read
        mixed = ExactState(((1, 0), (0, 0), (1, 0), (0, 0)), 1)
        monkeypatch.setattr("qdialogue.attacks.measure_t_computational",
                            lambda state, rand: (0, HOME_UNDETERMINED, 0.5))
        monkeypatch.setattr("qdialogue.exactstate.measure_t_branches",
                            lambda state: [(mixed, 0)])

    @pytest.mark.usefixtures("broken_collapse")
    @pytest.mark.parametrize("route", list(Route))
    def test_every_engine_raises(self, route):
        attack = InterceptMeasure(route)
        with pytest.raises(InvariantError, match="home qubit"):
            run_round(RoundConfig((0, 1), (1, 0), Mode.CONTROL), attack,
                      RandomSource(0))
        with pytest.raises(InvariantError, match="home qubit"):
            run_session(50, 0.5, RandomSource(0), attack)
        with pytest.raises(InvariantError, match="home qubit"):
            monte_carlo(attack, n=50, seed=0)
