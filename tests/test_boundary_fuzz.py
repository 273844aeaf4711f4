"""Boundary fuzz of the library: the exact model's constructors and
functions, and the float names kept beside them, called with members,
their string values, near-miss strings, None, bools, floats, ints, lists
and instances of the other value classes, in any argument position.

Each call either returns what the call with every argument in its member
form returns, or raises ``ValueError`` or ``TypeError``: never an
``AttributeError``, ``KeyError`` or ``IndexError`` from inside.  A rejected
call fills no cache.  The float primitives of the round simulator
(``apply_pauli_t``, the two measurements, ``apply_eve``) are not fuzzed
here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdialogue.analysis import CaseDescriptor
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
from qdialogue.qcore import (
    TwoQubitState,
    bell_decompose,
    bell_state,
    equal_up_to_global_phase,
    pauli_matrix,
)

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
    RandomSource(5), STATE,
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

#: the caches the fuzzed names fill
CACHES = (label_map, expected_outcome)


def member_form(value, pairs):
    """``value``'s member form among ``pairs``, by type and equality, so
    that ``True`` and ``1.0`` are not the bit 1; raises LookupError when
    ``value`` is none of the forms."""
    for form, member in pairs:
        if type(form) is type(value) and form == value:
            return member
    raise LookupError(value)


def outcome(function, args):
    """What ``function(*args)`` gives, comparable with ``==``: its result,
    or the type of the ``ValueError`` or ``TypeError`` it raises; any other
    exception propagates."""
    try:
        result = function(*args)
    except (ValueError, TypeError) as exc:
        return type(exc)
    if isinstance(result, np.ndarray):
        return result.tolist()
    if isinstance(result, RandomSource):
        return result.seed, result._rng.getstate()
    return result


@pytest.mark.parametrize("name,position", [
    pytest.param(name, position, id=f"{name}-{position}")
    for name, (_, positions) in CALLS.items() for position in range(len(positions))])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=st.data())
def test_returns_the_member_form_or_raises_value_or_type_error(name, position, data):
    function, positions = CALLS[name]
    # every other argument one of its forms; this one each of ANY and its forms
    args = [data.draw(st.sampled_from([form for form, _ in pairs])) for pairs in positions]
    for value in ANY + tuple(form for form, _ in positions[position]):
        args[position] = value
        sizes = [cache.cache_info().currsize for cache in CACHES]
        result = outcome(function, args)
        try:
            members = [member_form(arg, pairs) for arg, pairs in zip(args, positions)]
        except LookupError:
            assert result in (ValueError, TypeError), (args, result)
        else:
            assert result == outcome(function, members), (args, members)
        if result in (ValueError, TypeError):
            assert [cache.cache_info().currsize for cache in CACHES] == sizes, args
