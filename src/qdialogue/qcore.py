"""Two-qubit linear algebra for the quantum dialogue simulator.

Conventions fixed project-wide:

* Basis ordering: amplitude index = 2*h + t, i.e. (|00>, |01>, |10>, |11>)
  where h is the home qubit Bob keeps and t is the travel qubit.
* Pauli sign convention: ``pauli_matrix(PauliCode(1, 0))`` is
  ``[[0, +i], [-i, 0]]`` -- the *negative* of the textbook sigma_y.  The
  closed-form identities C_{1,0}|1> = +i|0> and C_{1,0}|0> = -i|1> force
  this sign.  All measurement statistics are global-phase invariant, so the
  choice is observationally equivalent to the textbook one.
* Bell-state labels come in two inequivalent conventions
  (:class:`Convention`), which assign the index pair (k, l) to different
  physical states.  ``label_map`` bridges them.

Phases that are fourth roots of unity are kept exact (:class:`Phase`),
never as floats.  The Born-rule measurements here serve the round
simulator alone: the samplers read the tree of the exact walk in
:mod:`qdialogue.analysis`.  numpy is imported only by the two functions
that return arrays (:func:`pauli_matrix`, :meth:`TwoQubitState.as_array`),
and :mod:`fractions` only where a ``Fraction`` is built (see
:mod:`qdialogue.analysis`), so the round simulator and both samplers run
without either, and the exact path without numpy.

The package's record types derive from :class:`Value` or
:class:`FrozenValue`, plain ``__slots__`` classes, so that importing the
package loads neither :mod:`dataclasses` (with the :mod:`inspect` it
imports) nor :mod:`typing`.
"""

from __future__ import annotations

import operator
import random
from enum import Enum
from functools import lru_cache

SQRT_HALF = 2.0 ** -0.5

#: tolerance for algebraic identities (orthonormality, recomposition, norms)
ALG_TOL = 1e-12
#: tolerance used when picking the anchor amplitude for phase canonicalization
CANON_TOL = 1e-9


class InvariantError(Exception):
    """A state or operation violated an internal contract (e.g. lost norm)."""


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
        if a not in (0, 1) or b not in (0, 1):
            raise ValueError(f"Pauli code bits must be 0/1, got ({a}, {b})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

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


class BellLabel(FrozenValue):
    """A (k, l) Bell-state name tied to the convention it lives in.

    Labels are only meaningfully comparable within one convention; callers
    that compare across conventions must convert with :func:`label_map`
    first.
    """

    __slots__ = ("k", "l", "convention")

    def __init__(self, k: int, l: int, convention: Convention):
        if k not in (0, 1) or l not in (0, 1):
            raise ValueError(f"Bell label bits must be 0/1, got ({k}, {l})")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "convention", convention)

    def bits(self) -> tuple[int, int]:
        return (self.k, self.l)


class TwoQubitState:
    """Four complex amplitudes over |h t>, index = 2*h + t.

    Immutable; normalization is checked on construction.  Two states are
    equal when their amplitudes are, exactly; copies and pickles are
    rebuilt from the amplitudes without a second check, so they are exact.
    """

    __slots__ = ("amp",)

    def __init__(self, amp, check: bool = True):
        amp = tuple(complex(a) for a in amp)
        if len(amp) != 4:
            raise ValueError("TwoQubitState needs exactly 4 amplitudes")
        if check:
            n = sum(abs(a) ** 2 for a in amp)
            if abs(n - 1.0) > ALG_TOL:
                raise InvariantError(f"state norm^2 = {n!r}, not 1")
        object.__setattr__(self, "amp", amp)

    def __setattr__(self, name, value):
        raise AttributeError("TwoQubitState is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.amp == other.amp
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.amp)

    def __reduce__(self):
        return type(self), (self.amp, False)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amp)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self.amp, dtype=complex)

    def __repr__(self) -> str:
        return f"TwoQubitState({list(self.amp)!r})"

    @classmethod
    def _unsafe(cls, amp: tuple) -> "TwoQubitState":
        # hot-path constructor: amp must already be a 4-tuple of complex
        self = object.__new__(cls)
        object.__setattr__(self, "amp", amp)
        return self


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


def pauli_matrix(code: PauliCode) -> np.ndarray:
    """2x2 matrix of C_{a,b}; column c holds the image of |c>."""
    import numpy as np

    m = np.zeros((2, 2), dtype=complex)
    for c in (0, 1):
        phase, r = _ACTION[(code.a, code.b, c)]
        m[r, c] = phase.as_complex()
    return m


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


# Complex-valued action table for the hot path: (a, b) -> (flips, c0, c1)
# where |t'> maps to c_{t'} |t' xor flips>.
_ACTION_C = {
    (a, b): (
        _ACTION[(a, b, 0)][1],
        _ACTION[(a, b, 0)][0].as_complex(),
        _ACTION[(a, b, 1)][0].as_complex(),
    )
    for a in (0, 1)
    for b in (0, 1)
}


def apply_pauli_t(state: TwoQubitState, code: PauliCode) -> TwoQubitState:
    """Apply C_{a,b} to the travel qubit: (I tensor C) |state>."""
    flips, c0, c1 = _ACTION_C[(code.a, code.b)]
    a0, a1, a2, a3 = state.amp
    if flips:
        amp = (c1 * a1, c0 * a0, c1 * a3, c0 * a2)
    else:
        amp = (c0 * a0, c1 * a1, c0 * a2, c1 * a3)
    return TwoQubitState._unsafe(amp)


def bell_state(convention: Convention, k: int, l: int) -> TwoQubitState:
    """The Bell state named (k, l) under the given convention."""
    return _BELL_STATES[(convention, k, l)]


def _build_bell(convention: Convention, k: int, l: int) -> TwoQubitState:
    amp = [0j, 0j, 0j, 0j]
    if convention is Convention.OPERATOR_ENCODING:
        code = PauliCode(k, l)
        p1, r1 = _ACTION[(code.a, code.b, 1)]  # |0>_h C|1>_t
        p0, r0 = _ACTION[(code.a, code.b, 0)]  # |1>_h C|0>_t
        amp[r1] += p1.as_complex() * SQRT_HALF
        amp[2 + r0] += p0.as_complex() * SQRT_HALF
    else:
        amp[l] = SQRT_HALF
        amp[2 + (1 ^ l)] = (-1.0) ** k * SQRT_HALF
    return TwoQubitState(amp)


_BELL_STATES = {
    (conv, k, l): _build_bell(conv, k, l)
    for conv in Convention
    for k in (0, 1)
    for l in (0, 1)
}

_BELL_CONJ = {
    key: tuple(a.conjugate() for a in st.amp) for key, st in _BELL_STATES.items()
}

BELL_LABEL_ORDER = ((0, 0), (0, 1), (1, 0), (1, 1))

_BELL_LABELS = {
    (conv, k, l): BellLabel(k, l, conv)
    for conv in Convention
    for k, l in BELL_LABEL_ORDER
}

_BELL_CONJ_ORDERED = {
    conv: tuple(((k, l), _BELL_CONJ[(conv, k, l)]) for k, l in BELL_LABEL_ORDER)
    for conv in Convention
}


def bell_decompose(
    state: TwoQubitState, convention: Convention
) -> dict[BellLabel, complex]:
    """Inner products <Psi_{k,l}|state> for all four labels of a convention."""
    a = state.amp
    out = {}
    for k, l in BELL_LABEL_ORDER:
        b = _BELL_CONJ[(convention, k, l)]
        out[BellLabel(k, l, convention)] = (
            b[0] * a[0] + b[1] * a[1] + b[2] * a[2] + b[3] * a[3]
        )
    return out


def recompose(coeffs: dict[BellLabel, complex]) -> TwoQubitState:
    """Rebuild a state from its Bell coefficients (inverse of bell_decompose)."""
    amp = [0j, 0j, 0j, 0j]
    for label, c in coeffs.items():
        b = _BELL_STATES[(label.convention, label.k, label.l)].amp
        for x in range(4):
            amp[x] += c * b[x]
    return TwoQubitState(amp)


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
    :func:`analysis.run_session` and :func:`analysis.monte_carlo` document
    theirs.  :meth:`child` gives an independent stream ``index``, Mersenne
    Twister seeded with :meth:`child_seed`, derived from SHA-256 of
    ``"seed:index"``; no engine uses it.  Seeds are integers in [0, 2**64),
    the width of a child seed: others raise ValueError, and floats and bools
    raise TypeError rather than being truncated.
    """

    GENERATOR_ID = "mt19937:python-random:single-stream"

    __slots__ = ("seed", "_rng")

    def __init__(self, seed: int):
        if isinstance(seed, bool):
            raise TypeError("seed must be an integer, not bool")
        seed = operator.index(seed)
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


def measure_t_computational(
    state: TwoQubitState, rand: RandomSource
) -> tuple[int, TwoQubitState, float]:
    """Born-rule measurement of the travel qubit in the computational basis.

    Returns (outcome bit, collapsed renormalized state, outcome probability).
    The outcome is 0 iff the draw lies below the probability of t = 0.
    """
    a0, a1, a2, a3 = state.amp
    p0 = (a0.real * a0.real + a0.imag * a0.imag
          + a2.real * a2.real + a2.imag * a2.imag)
    if rand.random() < p0:
        scale = p0 ** -0.5
        return 0, TwoQubitState._unsafe((a0 * scale, 0j, a2 * scale, 0j)), p0
    p1 = 1.0 - p0
    scale = p1 ** -0.5
    return 1, TwoQubitState._unsafe((0j, a1 * scale, 0j, a3 * scale)), p1


def measure_bell(
    state: TwoQubitState, convention: Convention, rand: RandomSource
) -> tuple[BellLabel, float]:
    """Bell measurement under a convention: draws a label by its Born weight,
    the last nonzero one when rounding leaves the draw above every cumulative
    weight.  Weights that sum below ``1 - ALG_TOL`` raise InvariantError."""
    u = rand.random()
    a = state.amp
    acc = 0.0
    entries = []  # (cumulative weight, label, Born weight) of nonzero labels
    for (k, l), b in _BELL_CONJ_ORDERED[convention]:
        c = b[0] * a[0] + b[1] * a[1] + b[2] * a[2] + b[3] * a[3]
        w = c.real * c.real + c.imag * c.imag
        if w > 0.0:
            acc += w
            entries.append((acc, _BELL_LABELS[(convention, k, l)], w))
    if acc < 1.0 - ALG_TOL:
        raise InvariantError(f"Bell weights sum to {acc!r}, not 1")
    _acc, label, w = next((e for e in entries if u < e[0]), entries[-1])
    return label, w


def equal_up_to_global_phase(
    s1: TwoQubitState, s2: TwoQubitState, tol: float = ALG_TOL
) -> bool:
    """True iff s1 = c * s2 for some unit scalar c, within tol per amplitude.

    Each state is canonicalized so its first amplitude of magnitude above the
    canonicalization threshold is real positive, then compared entrywise.
    """

    def canon(amp):
        for a in amp:
            m = abs(a)
            if m > CANON_TOL:
                c = a.conjugate() / m
                return tuple(c * x for x in amp)
        return amp

    c1, c2 = canon(s1.amp), canon(s2.amp)
    return max(abs(x - y) for x, y in zip(c1, c2)) <= tol
