"""The protocol's exact model: value classes, Pauli algebra, Bell labels,
Eve's strategy catalog and the bookkeeping rules of a round.

Everything here is exact: phases are fourth roots of unity
(:class:`Phase`), Bell states are named by Gaussian-integer numerators
(:data:`BELL_NUMERATORS`), and neither numpy nor float arithmetic enters
(:meth:`Phase.as_complex` only renders a phase for the float layer).  The
exact walk (:mod:`qdialogue.exactstate`), the samplers
(:mod:`qdialogue.sampling`), the exact reports (:mod:`qdialogue.analysis`)
and the float round simulator (:mod:`qdialogue.qcore`,
:mod:`qdialogue.attacks`, :mod:`qdialogue.protocol`) all build on this
module, so a process that only samples loads it, the walk and the samplers,
and nothing else of the package.

Conventions fixed project-wide:

* Basis ordering: amplitude index = 2*h + t, i.e. (|00>, |01>, |10>, |11>)
  where h is the home qubit Bob keeps and t is the travel qubit.
* Pauli sign convention: C_{1,0} is ``[[0, +i], [-i, 0]]`` -- the
  *negative* of the textbook sigma_y.  The closed-form identities
  C_{1,0}|1> = +i|0> and C_{1,0}|0> = -i|1> force this sign.  All
  measurement statistics are global-phase invariant, so the choice is
  observationally equivalent to the textbook one.
* Bell-state labels come in two inequivalent conventions
  (:class:`Convention`), which assign the index pair (k, l) to different
  physical states.  ``label_map`` bridges them.  Which state each label
  names is written once, in :data:`BELL_NUMERATORS`; every Bell table of
  the package is read from it.

The package's record types derive from :class:`Value` or
:class:`FrozenValue`, plain ``__slots__`` classes, so that importing the
package loads neither :mod:`dataclasses` (with the :mod:`inspect` it
imports) nor :mod:`typing`.

A strategy carries its own route and answers ``tap(route)`` with what Eve
does there: nothing, :data:`MEASURE`, or one of a selection's codes.  The
exact walk and :func:`qdialogue.attacks.apply_eve` both dispatch on that
action.  Eve never learns whether the round is a control or a message
round -- the interface has no mode parameter.

The :class:`Comparison` rule on :class:`RoundConfig` decides how a measured
label is tested against the expected one when the two conventions differ:
``STRICT_PAPER`` compares the raw index pairs as-is, ``CONVERTED`` maps the
outcome into the expectation convention first (self-consistent).  That
single rule is the entire 3/4-versus-1/2 dispute.  :class:`Mode`,
:class:`Comparison`, :class:`Convention` and :class:`Route` also take their
string values (``"strict-paper"``, ``"b2a"``).  The bookkeeping of a round,
its two conventions and its comparison, becomes members in one place,
:func:`bookkeeping`, which :class:`RoundConfig` and every engine call, so an
unknown value raises ValueError wherever it enters.
:func:`control_detected` and :func:`decode_message` are the one detection
rule and the one decoder of every engine.
"""

from __future__ import annotations

import operator
import random
from enum import Enum
from functools import lru_cache


class InvariantError(Exception):
    """A state or operation violated an internal contract (e.g. lost norm)."""


def _integer(value, name: str) -> int:
    """``value`` as an int through ``operator.index``: floats raise
    TypeError rather than being truncated, and so do bools; the error names
    ``name``."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    return operator.index(value)


def _bit(value, name: str) -> int:
    """``value`` as the int 0 or 1, the one check of every value that holds
    bits: a value that is no integer, a bool or a float among them, raises
    TypeError (:func:`_integer`), and an integer other than 0 and 1
    ValueError."""
    value = _integer(value, name)
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value}")
    return value


def _field_values(names: tuple[str, ...]):
    """The function that maps an instance to the tuple of its fields
    ``names``: one C call when there are two or more."""
    if len(names) > 1:
        return operator.attrgetter(*names)
    if names:
        get = operator.attrgetter(*names)
        return lambda self: (get(self),)
    return lambda self: ()


class Value:
    """Base of the package's value classes.  A subclass names its fields in
    ``__slots__``, in order, and sets them in its own ``__init__``, whose
    parameters are the fields in that order.

    ``repr`` is ``Name(field=value, ...)``, instances are equal only to
    instances of the same class with equal fields, and copies and pickles
    are rebuilt through ``__init__``.  Instances are mutable and unhashable;
    :class:`FrozenValue` makes them immutable and hashable.
    """

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._values = staticmethod(_field_values(cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class FrozenValue(Value):
    """An immutable :class:`Value`, hashed as the tuple of its fields.  Its
    ``__init__`` sets each field with ``object.__setattr__``.

    The hash is computed at first use and kept in the slot ``_hash``, which
    is not a field: ``repr``, ``==``, copies and pickles never see it, so a
    copy or an unpickled value hashes again in its own process.  A value
    whose fields are unhashable raises ``TypeError`` on every call and keeps
    nothing.
    """

    # the subclasses' own __slots__ name their fields; this one is not a field
    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(self._values(self))
            object.__setattr__(self, "_hash", value)
            return value

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Phase(Enum):
    """Exact fourth root of unity i**k, closed under multiplication."""

    PLUS_ONE = 0
    PLUS_I = 1
    MINUS_ONE = 2
    MINUS_I = 3

    @classmethod
    def from_i_power(cls, exponent: int) -> "Phase":
        return cls(exponent % 4)

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase((self.value + other.value) % 4)

    def inverse(self) -> "Phase":
        return Phase((-self.value) % 4)

    def as_complex(self) -> complex:
        return (1 + 0j, 1j, -1 + 0j, -1j)[self.value]

    def as_gaussian(self) -> tuple[int, int]:
        """(re, im) integer pair, for exact arithmetic."""
        return ((1, 0), (0, 1), (-1, 0), (0, -1))[self.value]

    def __str__(self) -> str:
        return ("+1", "+i", "-1", "-i")[self.value]


class PauliCode(FrozenValue):
    """Two-bit label (a, b) of the encoding operator family C_{a,b}.

    C_{0,0} = identity, C_{0,1} = sigma_x, C_{1,0} = sigma_y (project sign
    convention, see module docstring), C_{1,1} = sigma_z.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        object.__setattr__(self, "a", _bit(a, "Pauli code bit a"))
        object.__setattr__(self, "b", _bit(b, "Pauli code bit b"))

    def __xor__(self, other: "PauliCode") -> "PauliCode":
        return PauliCode(self.a ^ other.a, self.b ^ other.b)


class PhasedPauli(FrozenValue):
    """A Pauli code together with the exact scalar picked up by composition."""

    __slots__ = ("code", "phase")

    def __init__(self, code: PauliCode, phase: Phase):
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "phase", phase)


class Convention(Enum):
    """The two Bell-label conventions used in the analysis.

    OPERATOR_ENCODING names Bell states through the encoding operators:
    Psi_{k,l} = (|0> C_{k,l}|1> + |1> C_{k,l}|0>) / sqrt(2), exact phases
    included.  PARITY_PHASE names them through the computational-basis
    decomposition identity: Psi_{k,c} = (|0 c> + (-1)^k |1 (1 xor c)>) / sqrt(2).
    The same index pair points at *different* physical states in the two
    schemes, which is precisely the bookkeeping subtlety this package
    quantifies.

    Members are singletons compared by identity, so they hash by identity
    too, in C: a cache keyed on a convention skips ``Enum.__hash__``.
    """

    OPERATOR_ENCODING = "oe"
    PARITY_PHASE = "pp"

    __hash__ = object.__hash__

    def other(self) -> "Convention":
        if self is Convention.OPERATOR_ENCODING:
            return Convention.PARITY_PHASE
        return Convention.OPERATOR_ENCODING


#: each convention, by member and by value
_CONVENTION = {key: member for member in Convention for key in (member, member.value)}


def _convention(value) -> Convention:
    """``value``, a convention member or its string value, as the member;
    anything else raises the ``ValueError`` of ``Convention``, an
    unhashable value included."""
    try:
        return _CONVENTION[value]
    except (KeyError, TypeError):
        return Convention(value)


class BellLabel(FrozenValue):
    """A (k, l) Bell-state name tied to the convention it lives in.

    Labels are only meaningfully comparable within one convention; callers
    that compare across conventions must convert with :func:`label_map`
    first.  The convention is stored as its member, given as the member or
    its string value (:func:`_convention`).
    """

    __slots__ = ("k", "l", "convention")

    def __init__(self, k: int, l: int, convention: Convention):
        object.__setattr__(self, "k", _bit(k, "Bell label bit k"))
        object.__setattr__(self, "l", _bit(l, "Bell label bit l"))
        object.__setattr__(self, "convention", _convention(convention))

    def bits(self) -> tuple[int, int]:
        return (self.k, self.l)


# Closed-form Pauli action, precomputed for all (a, b, basis_bit).
def _action(a: int, b: int, basis_bit: int) -> tuple[Phase, int]:
    if basis_bit == 1:
        if (a ^ b) == 0:
            return Phase.from_i_power(2 * a), 1       # (-1)^a |1>
        return Phase.from_i_power(a), 0               # (i)^a |0>
    if (a ^ b) == 0:
        return Phase.PLUS_ONE, 0                      # |0>
    return Phase.from_i_power(-a), 1                  # (-i)^a |1>


_ACTION = {
    (a, b, bit): _action(a, b, bit) for a in (0, 1) for b in (0, 1) for bit in (0, 1)
}


def pauli_action_closed_form(code: PauliCode, basis_bit: int) -> tuple[Phase, int]:
    """Exact action of C_{a,b} on |basis_bit>: returns (phase, result_bit)."""
    if basis_bit not in (0, 1):
        raise ValueError(f"basis bit must be 0/1, got {basis_bit}")
    return _ACTION[(code.a, code.b, basis_bit)]


def pauli_compose(first: PauliCode, second: PauliCode) -> PhasedPauli:
    """C_first . C_second = phase * C_{first xor second}, with exact phase."""
    code = first ^ second
    # The product has one nonzero entry per column; track |0> through both
    # factors and compare against the composed operator's action.
    p2, b2 = _ACTION[(second.a, second.b, 0)]
    p1, b1 = _ACTION[(first.a, first.b, b2)]
    pc, bc = _ACTION[(code.a, code.b, 0)]
    if b1 != bc:
        raise InvariantError("Pauli composition broke the XOR law")
    return PhasedPauli(code, p1 * p2 * pc.inverse())


BELL_LABEL_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))


def _bell_numerators(convention: Convention, k: int, l: int) -> tuple:
    z = [(0, 0)] * 4
    if convention is Convention.OPERATOR_ENCODING:
        p1, r1 = _ACTION[(k, l, 1)]  # |0>_h C|1>_t
        p0, r0 = _ACTION[(k, l, 0)]  # |1>_h C|0>_t
        z[r1] = p1.as_gaussian()
        z[2 + r0] = p0.as_gaussian()
    else:
        z[l] = (1, 0)
        z[2 + (1 ^ l)] = ((-1) ** k, 0)
    return tuple(z)


#: the one place that says which physical state each Bell label names: per
#: convention, in ``BELL_LABEL_ORDER``, the state's four amplitudes as
#: Gaussian-integer (re, im) numerators over sqrt(2).
BELL_NUMERATORS = {
    conv: tuple(_bell_numerators(conv, k, l) for k, l in BELL_LABEL_ORDER)
    for conv in Convention
}


@lru_cache(maxsize=None)
def label_map(label: BellLabel) -> BellLabel:
    """The opposite-convention label naming the same physical Bell state.

    (k, l) -> (k, 1 xor k xor l); involutive, and the mapped pair of states
    always has unit overlap magnitude.
    """
    return BellLabel(label.k, 1 ^ label.k ^ label.l, label.convention.other())


class RandomSource:
    """Seedable uniform-[0,1) stream (Mersenne Twister via random.Random).

    Identical seeds give bit-identical streams.  Every engine draws from one
    such stream in sequence, so a result depends on the order of its draws:
    :func:`qdialogue.sampling.run_session` and
    :func:`qdialogue.sampling.monte_carlo` document theirs.  :meth:`child`
    gives an independent stream ``index``, Mersenne Twister seeded with
    :meth:`child_seed`, derived from SHA-256 of ``"seed:index"``; no engine
    uses it.  Seeds are integers in [0, 2**64), the width of a child seed:
    others raise ValueError, and floats and bools raise TypeError rather
    than being truncated.
    """

    GENERATOR_ID = "mt19937:python-random:single-stream"

    __slots__ = ("seed", "_rng")

    def __init__(self, seed: int):
        seed = _integer(seed, "seed")
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = seed
        self._rng = random.Random(seed)

    def random(self) -> float:
        return self._rng.random()

    def child_seed(self, index: int) -> int:
        """The seed of child stream ``index``: the first 8 bytes, big-endian,
        of SHA-256 of ``"seed:index"``."""
        import hashlib

        digest = hashlib.sha256(f"{self.seed}:{index}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def child(self, index: int) -> "RandomSource":
        return RandomSource(self.child_seed(index))


# Eve's strategy catalog.

class Route(Enum):
    B_TO_A = "b2a"
    A_TO_B = "a2b"


# Disturbance-operator selection rules.  Each names the (u, v) ``codes`` it
# picks from and their integer ``weights``, which sum to a power of two: code
# x has probability weights[x] / sum(weights), and a draw u picks the first
# code whose cumulative weight exceeds u * sum(weights).  A rule with one
# code does not draw.  ``rule`` is the rule's name on the command line.

class Fixed(FrozenValue):
    """Always apply C_{u,v}."""

    __slots__ = ("u", "v")

    rule = "fixed"
    weights: tuple[int, ...] = (1,)

    def __init__(self, u: int, v: int):
        object.__setattr__(self, "u", _bit(u, "Fixed selection bit u"))
        object.__setattr__(self, "v", _bit(v, "Fixed selection bit v"))

    @property
    def codes(self) -> tuple[tuple[int, int], ...]:
        return ((self.u, self.v),)


class UniformAll4(FrozenValue):
    """Draw (u, v) uniformly from all four codes."""

    __slots__ = ()

    rule = "uniform4"
    codes: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))
    weights: tuple[int, ...] = (1, 1, 1, 1)


class CoinIZ(FrozenValue):
    """Draw uniformly from {identity, sigma_z} -- the message-scrambling coin."""

    __slots__ = ()

    rule = "coin-iz"
    codes: tuple[tuple[int, int], ...] = ((0, 0), (1, 1))
    weights: tuple[int, ...] = (1, 1)


Selection = Fixed | UniformAll4 | CoinIZ


class Measure(FrozenValue):
    """Tap action: measure the travel qubit in the computational basis."""

    __slots__ = ()


MEASURE = Measure()

#: what Eve does at a tap: nothing, measure, or apply a selection's codes
TapAction = Measure | Selection | None


# Strategies.  A route is stored as its member, given as the member or its
# string value, so both forms build equal strategies that share every cache;
# anything else raises the ValueError of ``Route``.

class Passive(FrozenValue):
    """No tampering."""

    __slots__ = ()

    def tap(self, route: Route) -> TapAction:
        return None


class InterceptMeasure(FrozenValue):
    """Measure the travel qubit in the computational basis at one tap and
    forward the collapsed qubit."""

    __slots__ = ("route",)

    def __init__(self, route: Route = Route.B_TO_A):
        object.__setattr__(self, "route", Route(route))

    def tap(self, route: Route) -> TapAction:
        return MEASURE if route is self.route else None


class DisturbPauli(FrozenValue):
    """Apply a (possibly random) Pauli to the travel qubit at one tap."""

    __slots__ = ("route", "selection")

    def __init__(self, route: Route = Route.A_TO_B,
                 selection: Selection = UniformAll4()):
        # duck-typed: any rule instance with ``codes`` and ``weights`` is a
        # selection; a rule's class is none, though it may carry both
        if isinstance(selection, type):
            raise TypeError(f"selection must be a rule instance, not the class {selection!r}")
        if not (hasattr(selection, "codes") and hasattr(selection, "weights")):
            raise TypeError(f"selection must have codes and weights, not {selection!r}")
        object.__setattr__(self, "route", Route(route))
        object.__setattr__(self, "selection", selection)

    def tap(self, route: Route) -> TapAction:
        return self.selection if route is self.route else None


EveStrategy = Passive | InterceptMeasure | DisturbPauli


# The bookkeeping of a round.

class Mode(str, Enum):
    MESSAGE = "message"
    CONTROL = "control"


class Comparison(str, Enum):
    """How a control-round outcome is scored against the expected label."""

    STRICT_PAPER = "strict-paper"
    CONVERTED = "converted"


#: each comparison, by member and by value
_COMPARISON = {key: member for member in Comparison for key in (member, member.value)}
#: the members a round reads, bound once: looking a member up on its enum
#: costs more than ten reads of a global
_OE, _PP = Convention.OPERATOR_ENCODING, Convention.PARITY_PHASE
_CONVERTED, _MESSAGE = Comparison.CONVERTED, Mode.MESSAGE


def bookkeeping(outcome_convention, expectation_convention,
                comparison) -> tuple[Convention, Convention, Comparison]:
    """The two conventions and the comparison as members, each given as a
    member or its string value, so that both forms share one cache entry;
    anything else raises the ``ValueError`` of its enum."""
    try:
        return (_CONVENTION[outcome_convention], _CONVENTION[expectation_convention],
                _COMPARISON[comparison])
    except (KeyError, TypeError):
        # raises the ValueError of the first value that names no member
        return (Convention(outcome_convention), Convention(expectation_convention),
                Comparison(comparison))


class RoundConfig(FrozenValue):
    """One round's inputs: each party's two encoding bits as a tuple, and
    each enum field as its member."""

    __slots__ = ("bob_bits", "alice_bits", "mode", "outcome_convention",
                 "expectation_convention", "comparison")

    def __init__(
        self,
        bob_bits: tuple[int, int],
        alice_bits: tuple[int, int],
        mode: Mode = Mode.MESSAGE,
        outcome_convention: Convention = Convention.OPERATOR_ENCODING,
        expectation_convention: Convention = Convention.OPERATOR_ENCODING,
        comparison: Comparison = Comparison.CONVERTED,
    ):
        bob_bits, alice_bits = tuple(bob_bits), tuple(alice_bits)
        if len(bob_bits) != 2 or len(alice_bits) != 2:
            raise ValueError("each party's encoding bits must be two 0/1 bits")
        object.__setattr__(self, "bob_bits", tuple(_bit(b, "encoding bit") for b in bob_bits))
        object.__setattr__(self, "alice_bits", tuple(_bit(b, "encoding bit") for b in alice_bits))
        # an unknown value raises ValueError
        object.__setattr__(self, "mode", Mode(mode))
        (outcome_convention, expectation_convention,
         comparison) = bookkeeping(outcome_convention, expectation_convention, comparison)
        object.__setattr__(self, "outcome_convention", outcome_convention)
        object.__setattr__(self, "expectation_convention", expectation_convention)
        object.__setattr__(self, "comparison", comparison)


@lru_cache(maxsize=None)
def _expected_label(i: int, j: int, k: int, l: int, convention: Convention) -> BellLabel:
    """:func:`expected_outcome` for a convention member, cached."""
    oe = BellLabel(i ^ k, j ^ l, _OE)
    if convention is _OE:
        return oe
    return label_map(oe)


def expected_outcome(
    i: int, j: int, k: int, l: int, convention: Convention
) -> BellLabel:
    """Bell label Bob predicts for an undisturbed round.

    Under OPERATOR_ENCODING the composition law gives (i xor k, j xor l);
    under PARITY_PHASE the same physical state carries the mapped label.
    The convention is a member or its string value, made the member
    (:func:`_convention`) before the cache, so both forms share one entry
    and anything else raises ``ValueError`` and fills none.
    """
    return _expected_label(i, j, k, l, _convention(convention))


# the cache behind expected_outcome, under its public name
expected_outcome.cache_info = _expected_label.cache_info
expected_outcome.cache_clear = _expected_label.cache_clear


def control_detected(config: RoundConfig, outcome: BellLabel) -> bool:
    """Whether a control-round outcome flags Eve: scored under the
    configured comparison rule, it differs from the label Bob expects."""
    k, l = config.bob_bits
    i, j = config.alice_bits
    # a RoundConfig holds the member
    expected = _expected_label(i, j, k, l, config.expectation_convention)
    if (
        config.comparison is _CONVERTED
        and outcome.convention is not config.expectation_convention
    ):
        outcome = label_map(outcome)
    return outcome.k != expected.k or outcome.l != expected.l


def decode_message(
    config: RoundConfig, outcome: BellLabel
) -> tuple[tuple[int, int], tuple[int, int]]:
    """(Alice's bits as Bob decodes them, Bob's bits as Alice decodes them)
    from a message-round outcome.

    The XOR composition law holds for operator-encoding labels only, so a
    parity-phase outcome is converted first; the expectation convention
    plays no part in decoding.
    """
    if outcome.convention is _PP:
        outcome = label_map(outcome)
    k, l = config.bob_bits
    i, j = config.alice_bits
    return (outcome.k ^ k, outcome.l ^ l), (outcome.k ^ i, outcome.l ^ j)
