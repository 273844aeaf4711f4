"""The law behind 3/4: a Pauli disturbance's detection is linear in Eve's
draw weights.

Each code a selection applies is one branch of the walk, so a
``DisturbPauli`` that applies C_{u,v} with weight w_uv has the average
sum(w_uv * d_uv) / sum(w), where d_uv is the ``Fixed(u, v)`` average under
the same bookkeeping, and its message errors are the same weighted sums.
The basis d, over the codes 00, 01, 10, 11 on either route, is
(0, 1, 1, 1) under ``converted`` and under ``strict-paper`` with equal
conventions, and (1/2, 1/2, 1, 1) under ``strict-paper`` with mixed ones.
Intercept-measure is the coin-iz disturbance (``TestInterceptIsCoinIZ`` in
``test_protocol.py``), so the disputed pair is the coin-iz row of the law:
1 - (1/2 + 0)/2 = 3/4 against 1 - 1/2 = 1/2.
"""

from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdialogue.analysis import compare_claims, enumerate_exact, message_error_rate
from qdialogue.model import (
    CoinIZ,
    DisturbPauli,
    Fixed,
    InvariantError,
    RandomSource,
    Route,
    UniformAll4,
)
from qdialogue.sampling import monte_carlo, run_session
from test_analysis import ALL_COMBOS, StubSelection
from test_protocol import table_expectations

CODES = ((0, 0), (0, 1), (1, 0), (1, 1))
HALF = Fraction(1, 2)

bookkeepings = pytest.mark.parametrize("oc,ec,comp", ALL_COMBOS,
                                       ids=lambda value: getattr(value, "value", value))
routes = pytest.mark.parametrize("route", list(Route), ids=lambda route: route.value)


def basis(route, oc, ec, comp) -> dict:
    """d_uv: the ``Fixed(u, v)`` average of each code under a bookkeeping."""
    return {uv: enumerate_exact(DisturbPauli(route, Fixed(*uv)), oc, ec, comp).average
            for uv in CODES}


def message_errors(attack) -> tuple:
    """The six message errors: Alice's and Bob's pairs, then the bits i, j, k, l."""
    report = message_error_rate(attack)
    return (report.alice_to_bob, report.bob_to_alice, *report.per_bit.values())


def weighted(codes, weights, values) -> Fraction:
    """sum(w_uv * values[uv]) / sum(w)."""
    return sum(w * values[uv] for w, uv in zip(weights, codes)) / Fraction(sum(weights))


def law(attack) -> tuple[dict, tuple]:
    """What the law predicts for a disturbance: its average under each
    bookkeeping, and its six message errors."""
    route, codes, weights = attack.route, attack.selection.codes, attack.selection.weights
    averages = {(oc, ec, comp): weighted(codes, weights, basis(route, oc, ec, comp))
                for oc, ec, comp in ALL_COMBOS}
    per_code = {uv: message_errors(DisturbPauli(route, Fixed(*uv))) for uv in CODES}
    errors = tuple(weighted(codes, weights, {uv: e[t] for uv, e in per_code.items()})
                   for t in range(6))
    return averages, errors


@st.composite
def disturbances(draw) -> DisturbPauli:
    """A disturbance on either route whose selection applies some of the
    four codes, in any order, with positive integer weights that sum to
    2**k for some k <= 6."""
    route = draw(st.sampled_from(list(Route)))
    codes = draw(st.permutations(CODES))[:draw(st.integers(1, 4))]
    k = draw(st.integers((len(codes) - 1).bit_length(), 6))
    cuts = sorted(draw(st.lists(st.integers(1, 2**k - 1), min_size=len(codes) - 1,
                                max_size=len(codes) - 1, unique=True))) if k else []
    weights = tuple(b - a for a, b in zip((0, *cuts), (*cuts, 2**k)))
    return DisturbPauli(route, StubSelection(tuple(codes), weights))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(disturbances())
# the shipped rules, a sampler-resolvable selection on each route, and one
# the samplers reject
@example(DisturbPauli(Route.A_TO_B, UniformAll4()))
@example(DisturbPauli(Route.B_TO_A, CoinIZ()))
@example(DisturbPauli(Route.A_TO_B, StubSelection(((1, 1), (0, 0)), (3, 1))))
@example(DisturbPauli(Route.B_TO_A, StubSelection(((0, 1), (0, 0), (1, 0)), (1, 1, 2))))
@example(DisturbPauli(Route.B_TO_A, StubSelection(((0, 0), (0, 1), (1, 0), (1, 1)),
                                                  (1, 2, 4, 9))))
def test_detection_is_linear_in_the_weights(attack):
    codes, weights = attack.selection.codes, attack.selection.weights
    averages, errors = law(attack)
    for oc, ec, comp in ALL_COMBOS:
        report = enumerate_exact(attack, oc, ec, comp)
        assert report.average == averages[oc, ec, comp]
        d = basis(attack.route, oc, ec, comp)
        assert report.per_selection == {uv: d[uv] for uv in codes}
    assert message_errors(attack) == errors
    # the samplers resolve a draw by its quarter of [0, 1)
    total = sum(weights)
    if all(4 * c % total == 0 for c in accumulate(weights)):
        for oc, ec, comp in ALL_COMBOS:
            # the table's error tallies: the pair, then m and n, which are
            # the errors of the bits i and j
            control, detected, *message = table_expectations(attack, oc, ec, comp)
            assert (control, detected, *message) == (1, averages[oc, ec, comp],
                                                     errors[0], *errors[2:4])
    else:
        with pytest.raises(InvariantError, match="multiple of 1/4"):
            monte_carlo(attack, n=8)
        with pytest.raises(InvariantError, match="multiple of 1/4"):
            run_session(8, 0.5, RandomSource(0), attack)


@routes
@bookkeepings
def test_the_basis(route, oc, ec, comp):
    d = tuple(basis(route, oc, ec, comp)[uv] for uv in CODES)
    if comp == "strict-paper" and oc != ec:
        # d = 1 - (p00 + p01) / 2
        assert d == (HALF, HALF, 1, 1)
    else:
        # d = 1 - p00
        assert d == (0, 1, 1, 1)


def test_the_dispute_is_the_coin_iz_row():
    claims = compare_claims()
    strict = basis(Route.B_TO_A, "pp", "oe", "strict-paper")
    consistent = basis(Route.B_TO_A, "oe", "oe", "converted")
    coin = CoinIZ()
    # coin-iz has p00 = 1/2 and p01 = 0: 1 - (p00 + p01) / 2 against 1 - p00
    assert (claims.strict_paper_average == weighted(coin.codes, coin.weights, strict)
            == 1 - (HALF + 0) / 2 == Fraction(3, 4))
    assert (claims.consistent_value == weighted(coin.codes, coin.weights, consistent)
            == 1 - HALF)
