"""Boundary fuzz of the library: the exact model's constructors and
functions, the float names kept beside them, and the engines
(``enumerate_exact``, ``message_error_rate``, ``monte_carlo``,
``run_session``, ``run_round`` and each strategy's ``tap``), called with
members, their string values, near-miss strings, None, bools, floats, ints,
lists and instances of the other value classes, in any argument position.

Each call either returns what the call with every argument in its member
form returns, or raises ``ValueError`` or ``TypeError``: never an
``AttributeError``, ``KeyError`` or ``IndexError`` from inside.  A rejected
call fills no cache of any ``qdialogue`` module, and a call in another form
fills no entry that its member form does not share.  Each call draws from a
copy of a random source it is given.  The float primitives of the round
simulator (``apply_pauli_t``, the two measurements, ``apply_eve``) are not
fuzzed here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _CACHES
from qdialogue.analysis import CaseDescriptor, enumerate_exact, message_error_rate
from qdialogue.exactstate import ALL_BIT_TUPLES
from qdialogue.model import (
    MEASURE,
    BellLabel,
    CoinIZ,
    Comparison,
    Convention,
    DisturbPauli,
    Fixed,
    InterceptMeasure,
    Mode,
    Passive,
    PauliCode,
    Phase,
    RandomSource,
    RoundConfig,
    Route,
    UniformAll4,
    expected_outcome,
    label_map,
    pauli_action_closed_form,
    pauli_compose,
)
from qdialogue.protocol import run_round
from qdialogue.qcore import (
    TwoQubitState,
    bell_decompose,
    bell_state,
    equal_up_to_global_phase,
    pauli_matrix,
)
from qdialogue.sampling import monte_carlo, run_session

OE, PP = Convention.OPERATOR_ENCODING, Convention.PARITY_PHASE
STATE, OTHER_STATE = bell_state(OE, 0, 1), bell_state(PP, 1, 1)
CODE, OTHER_CODE = PauliCode(0, 1), PauliCode(1, 1)
LABEL, OTHER_LABEL = BellLabel(0, 1, OE), BellLabel(1, 0, PP)

#: what an argument is drawn from, whatever its position
ANY = (
    # members
    OE, PP, Route.B_TO_A, Route.A_TO_B, Comparison.STRICT_PAPER,
    Comparison.CONVERTED, Mode.CONTROL, Mode.MESSAGE, Phase.PLUS_I,
    # string values
    "oe", "pp", "b2a", "a2b", "strict-paper", "converted", "control",
    "message", "a", "b", "none",
    # near misses
    "OE", "Pp", " oe", "b2a ", "B_TO_A", "strict_paper", "Control", "c",
    "", "1", "00", "1000",
    None, True, False, 0.0, 1.0, 0.5, float("nan"), 0, 1, 2, -1,
    [], [0, 1], [1, 0, 1], ["oe"], ["1", "0", "0", "0"], (0, 1),
    # instances of the value classes
    CODE, OTHER_CODE, LABEL, OTHER_LABEL, Fixed(1, 1), UniformAll4(),
    CoinIZ(), MEASURE, Passive(), InterceptMeasure(), DisturbPauli(),
    RoundConfig((0, 1), (1, 0)), CaseDescriptor(0, 1, 1, "a"),
    SOURCE := RandomSource(5), STATE,
)


def forms(*members) -> tuple:
    """(argument, its member form) pairs, each of ``members`` as itself."""
    return tuple((member, member) for member in members)


def enum_forms(enum) -> tuple:
    """The forms of an enum argument: each member, and its string value."""
    return forms(*enum) + tuple((member.value, member) for member in enum)


BIT = forms(0, 1)
CONVENTION = enum_forms(Convention)
ROUTE = enum_forms(Route)
COMPARISON = enum_forms(Comparison)
MODE = enum_forms(Mode)
SELECTION = forms(Fixed(1, 1), Fixed(0, 1), UniformAll4(), CoinIZ())
#: a party's two encoding bits, as any sequence of two
BIT_PAIR = forms((0, 1), (1, 1)) + (([0, 1], (0, 1)), ([1, 1], (1, 1)))
BRANCH = forms("a", "b", "none")
SEED = forms(0, 1, 2, 2**64 - 1)
CODES = forms(CODE, OTHER_CODE, PauliCode(0, 0))
LABELS = forms(LABEL, OTHER_LABEL)
STATES = forms(STATE, OTHER_STATE)
AMPLITUDES = forms(STATE.amp) + ((list(STATE.amp), STATE.amp),)
#: the engines' arguments: every strategy of ``ANY``, and round counts and
#: control fractions that hold every valid int and float of ``ANY``
ATTACK = forms(Passive(), InterceptMeasure(), DisturbPauli(),
               InterceptMeasure(Route.A_TO_B), DisturbPauli(Route.B_TO_A, CoinIZ()))
COUNT = forms(1, 2, 5)
FRACTION = forms(0.0, 0.5, 1.0) + ((0, 0.0), (1, 1.0))
SOURCES = forms(SOURCE, RandomSource(0))
CONVENTION_PAIR = forms((OE, OE), (PP, OE)) + ((("pp", "oe"), (PP, OE)), ([PP, OE], (PP, OE)),
                                               (["oe", "oe"], (OE, OE)))
CASE_ORDER = forms(None, ALL_BIT_TUPLES) + ((list(ALL_BIT_TUPLES[::-1]), ALL_BIT_TUPLES[::-1]),)
CONFIG = forms(RoundConfig((0, 1), (1, 0)),
               RoundConfig((1, 1), (0, 1), Mode.MESSAGE, PP, OE, "strict-paper"))

#: each public name and the forms of each of its positional arguments
CALLS = {
    "PauliCode": (PauliCode, (BIT, BIT)),
    "BellLabel": (BellLabel, (BIT, BIT, CONVENTION)),
    "Fixed": (Fixed, (BIT, BIT)),
    "InterceptMeasure": (InterceptMeasure, (ROUTE,)),
    "DisturbPauli": (DisturbPauli, (ROUTE, SELECTION)),
    "RoundConfig": (RoundConfig, (BIT_PAIR, BIT_PAIR, MODE, CONVENTION, CONVENTION,
                                  COMPARISON)),
    "CaseDescriptor": (CaseDescriptor, (BIT, BIT, BIT, BRANCH)),
    "RandomSource": (RandomSource, (SEED,)),
    "expected_outcome": (expected_outcome, (BIT, BIT, BIT, BIT, CONVENTION)),
    "label_map": (label_map, (LABELS,)),
    "TwoQubitState": (TwoQubitState, (AMPLITUDES,)),
    "bell_state": (bell_state, (CONVENTION, BIT, BIT)),
    "bell_decompose": (bell_decompose, (STATES, CONVENTION)),
    "pauli_matrix": (pauli_matrix, (CODES,)),
    "pauli_compose": (pauli_compose, (CODES, CODES)),
    "pauli_action_closed_form": (pauli_action_closed_form, (CODES, BIT)),
    "equal_up_to_global_phase": (equal_up_to_global_phase, (STATES, STATES)),
}
#: each engine and the forms of each of its positional arguments
ENGINES = {
    "enumerate_exact": (enumerate_exact, (ATTACK, CONVENTION, CONVENTION, COMPARISON,
                                          CASE_ORDER)),
    "message_error_rate": (message_error_rate, (ATTACK,)),
    "monte_carlo": (monte_carlo, (ATTACK, CONVENTION, CONVENTION, COMPARISON, COUNT, SEED)),
    "run_session": (run_session, (COUNT, FRACTION, SOURCES, ATTACK, CONVENTION_PAIR,
                                  COMPARISON)),
    "run_round": (run_round, (CONFIG, ATTACK, SOURCES)),
    "Passive.tap": (Passive().tap, (ROUTE,)),
    "InterceptMeasure.tap": (InterceptMeasure(Route.A_TO_B).tap, (ROUTE,)),
    "DisturbPauli.tap": (DisturbPauli(Route.B_TO_A, CoinIZ()).tap, (ROUTE,)),
}


def member_form(value, pairs):
    """``value``'s member form among ``pairs``, by type and equality, so
    that ``True`` and ``1.0`` are not the bit 1; raises LookupError when
    ``value`` is none of the forms."""
    for form, member in pairs:
        if type(form) is type(value) and form == value:
            return member
    raise LookupError(value)


def unspent(arg):
    """``arg``, or a copy of it when it is a random source: a new source of
    its seed, at its state."""
    if not isinstance(arg, RandomSource):
        return arg
    source = RandomSource(arg.seed)
    source._rng.setstate(arg._rng.getstate())
    return source


def outcome(function, args):
    """What ``function(*args)`` gives, comparable with ``==``: its result,
    or the type of the ``ValueError`` or ``TypeError`` it raises; any other
    exception propagates.  A random source is passed as a copy, so that
    every call draws the same."""
    try:
        result = function(*map(unspent, args))
    except (ValueError, TypeError) as exc:
        return type(exc)
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, RandomSource):
        return result.seed, result._rng.getstate()
    return result


def cache_sizes() -> list[int]:
    """The number of entries of every cache of every ``qdialogue`` module."""
    return [cache.cache_info().currsize for cache in _CACHES]


def positions_of(calls) -> list:
    """A test parameter per name of ``calls`` and position of its arguments."""
    return [pytest.param(name, position, id=f"{name}-{position}")
            for name, (_, positions) in calls.items() for position in range(len(positions))]


def check_position(function, positions, position, data):
    """Call ``function`` with each of ``ANY`` and of its own forms at
    ``position``, and drawn forms elsewhere, and check the three rules."""
    # every other argument one of its forms; this one each of ANY and its forms
    args = [data.draw(st.sampled_from([form for form, _ in pairs])) for pairs in positions]
    for value in ANY + tuple(form for form, _ in positions[position]):
        args[position] = value
        sizes = cache_sizes()
        result = outcome(function, args)
        filled = cache_sizes()
        try:
            members = [member_form(arg, pairs) for arg, pairs in zip(args, positions)]
        except LookupError:
            assert result in (ValueError, TypeError), (args, result)
        else:
            assert result == outcome(function, members), (args, members)
            assert cache_sizes() == filled, args
        if result in (ValueError, TypeError):
            assert filled == sizes, args


@pytest.mark.parametrize("name,position", positions_of(CALLS))
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=st.data())
def test_returns_the_member_form_or_raises_value_or_type_error(name, position, data):
    check_position(*CALLS[name], position, data)


@pytest.mark.parametrize("name,position", positions_of(ENGINES))
@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(data=st.data())
def test_engine_returns_the_member_form_or_raises_value_or_type_error(name, position, data):
    check_position(*ENGINES[name], position, data)
