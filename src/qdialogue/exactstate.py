"""Exact integer arithmetic and the exact walk over a round's tree.

Every state reached in the protocol has amplitudes of the form
z / sqrt(2)**half with z a Gaussian integer, so a state is a 4-tuple of
(re, im) integer pairs plus one shared square-root-of-two exponent.  Every
probability is dyadic: :func:`bell_weights_exact` returns a Bell
measurement's Born weights as integer numerators over 2**(half + 1) and
:func:`measure_t_branches` a t-measurement's over 2**half.  The exact Bell
states and their conjugates are read from the table that names the Bell
states once, :data:`qdialogue.model.BELL_NUMERATORS`.

One exact walk yields every leaf of a round's tree: the 16 encoding-bit
tuples, the branches of Eve's tap action, and the four Bell outcomes, each
mass an int over a power of two, Eve's draw weights included.
:func:`_walk` makes it once per strategy and outcome convention, and
:func:`_outcome_tallies` applies the rules of :mod:`qdialogue.model` once
per conventions and comparison: per bit tuple, one tally byte per Bell
outcome (control, detected, pair and bit errors).  The samplers
(:mod:`qdialogue.sampling`) and the exact reports (:mod:`qdialogue.analysis`)
both read these two caches.  Neither a float nor a ``Fraction`` enters this
path (only :meth:`ExactState.norm_sq` builds one), and the module sits
below the float round simulator, so the samplers walk without loading it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .model import (
    _ACTION,
    BELL_LABEL_ORDER,
    BELL_NUMERATORS,
    MEASURE,
    BellLabel,
    Comparison,
    Convention,
    EveStrategy,
    FrozenValue,
    InvariantError,
    Mode,
    PauliCode,
    RoundConfig,
    Route,
    control_detected,
    decode_message,
)

Gaussian = tuple[int, int]

_ZERO: Gaussian = (0, 0)


def _gabs2(x: Gaussian) -> int:
    return x[0] * x[0] + x[1] * x[1]


class ExactState(FrozenValue):
    """Amplitudes z[x] / sqrt(2)**half over the |h t> basis."""

    __slots__ = ("z", "half")

    def __init__(self, z: tuple[Gaussian, Gaussian, Gaussian, Gaussian], half: int):
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "half", half)

    def norm_sq(self) -> Fraction:
        from fractions import Fraction
        return Fraction(sum(_gabs2(g) for g in self.z), 2 ** self.half)

    def amplitudes(self) -> tuple[complex, ...]:
        scale = 2.0 ** (-self.half / 2.0)
        return tuple(complex(a, b) * scale for a, b in self.z)


def exact_bell(convention: Convention, k: int, l: int) -> ExactState:
    """Exact Bell state, amplitudes over sqrt(2), read from
    :data:`~qdialogue.model.BELL_NUMERATORS`."""
    return ExactState(BELL_NUMERATORS[convention][BELL_LABEL_ORDER.index((k, l))], 1)


#: per code (a, b), the (Gaussian phase, target bit) of C_{a,b} on |0> and
#: |1>; C_{a,b} permutes the basis, so the two targets differ
_PAULI_T = {
    (a, b): tuple((p.as_gaussian(), r) for p, r in (_ACTION[a, b, 0], _ACTION[a, b, 1]))
    for a in (0, 1) for b in (0, 1)
}


def apply_pauli_t_exact(state: ExactState, code: PauliCode) -> ExactState:
    ((p0, q0), r0), ((p1, q1), r1) = _PAULI_T[(code.a, code.b)]
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = state.z
    out: list[Gaussian] = [_ZERO] * 4
    out[r0] = (p0 * x0 - q0 * y0, p0 * y0 + q0 * x0)
    out[r1] = (p1 * x1 - q1 * y1, p1 * y1 + q1 * x1)
    out[2 + r0] = (p0 * x2 - q0 * y2, p0 * y2 + q0 * x2)
    out[2 + r1] = (p1 * x3 - q1 * y3, p1 * y3 + q1 * x3)
    return ExactState(tuple(out), state.half)


def measure_t_branches(state: ExactState) -> list[tuple[int, ExactState, int]]:
    """All nonzero branches of a computational t-measurement.

    Returns (weight, collapsed renormalized state, t outcome) triples, each
    weight an integer numerator over 2**state.half.  Collapse probabilities
    in this protocol are always powers of 1/2, which keeps renormalization
    inside the Gaussian-integer ring; any other raises InvariantError.
    """
    branches = []
    for outcome in (0, 1):
        kept = tuple(g if (x & 1) == outcome else _ZERO for x, g in enumerate(state.z))
        weight = sum(map(_gabs2, kept))
        if weight:
            # weight / 2**state.half must be 1 / 2**(state.half - half)
            half = weight.bit_length() - 1
            if weight & (weight - 1) or half > state.half:
                raise InvariantError(f"non-dyadic collapse probability {weight}/{1 << state.half}")
            branches.append((weight, ExactState(kept, half), outcome))
    return branches


#: per convention, each Bell state's conjugated nonzero amplitudes as
#: (basis index, re, im) terms, in BELL_LABEL_ORDER
_BELL_CONJ_EXACT = {
    conv: tuple(tuple((x, re, -im) for x, (re, im) in enumerate(z) if re or im)
                for z in states)
    for conv, states in BELL_NUMERATORS.items()
}


def bell_weights_exact(
    state: ExactState, convention: Convention
) -> tuple[int, int, int, int]:
    """Exact Born weights of a Bell measurement under a convention: integer
    numerators over 2 ** (state.half + 1), in ``BELL_LABEL_ORDER``."""
    z = state.z
    out = []
    for terms in _BELL_CONJ_EXACT[convention]:
        re = im = 0
        for x, p, q in terms:
            a, b = z[x]
            re += p * a - q * b
            im += p * b + q * a
        out.append(re * re + im * im)
    return tuple(out)


BitTuple = tuple[int, int, int, int]

ALL_BIT_TUPLES: tuple[BitTuple, ...] = tuple(product((0, 1), repeat=4))

#: each bit tuple's place in ALL_BIT_TUPLES: (i, j, k, l) is at 8i + 4j + 2k + l
_PLACE = {bits: place for place, bits in enumerate(ALL_BIT_TUPLES)}

#: the code of each (a, b) bit pair
_CODES = {(a, b): PauliCode(a, b) for a, b in product((0, 1), repeat=2)}


def _home_branch(state: ExactState) -> str:
    home0, home1 = (_gabs2(state.z[h]) + _gabs2(state.z[h + 1]) for h in (0, 2))
    if home0 and home1:
        raise InvariantError("home qubit not definite after intercept")
    return "b" if home1 else "a"


def _tap(attack: EveStrategy, route: Route, exp: int, branches: list) -> tuple[int, list]:
    """Expand every branch through one channel tap.  Branch masses are ints
    over 2**exp; a selection's weights, which must sum to a power of two, or a
    measurement's, scaled to the largest exponent, multiply them; returns the
    new exponent and the new branches."""
    action = attack.tap(route)
    if action is None:
        return exp, branches
    if action is MEASURE:
        split = [(mass * w, state.half, collapsed, sel)
                 for mass, state, _branch, sel in branches
                 for w, collapsed, _t in measure_t_branches(state)]
        top = max((half for _, half, _, _ in split), default=0)
        return exp + top, [(mass << top - half, collapsed, _home_branch(collapsed), sel)
                           for mass, half, collapsed, sel in split]
    weights = action.weights
    total = sum(weights)
    if total < 1 or total & (total - 1):
        raise InvariantError(f"non-dyadic draw weights {weights}")
    choices = [(w, _CODES[uv], uv) for w, uv in zip(weights, action.codes)]
    return exp + total.bit_length() - 1, [
        (mass * w, apply_pauli_t_exact(state, code), branch, uv)
        for mass, state, branch, _sel in branches for w, code, uv in choices]


@lru_cache(maxsize=None)
def _walk(attack: EveStrategy, convention: Convention) -> tuple[int, tuple]:
    """The exact walk, once per strategy and outcome convention: every leaf
    of each encoding-bit tuple's round.

    Returns (D, groups): per bit tuple, at its place in ``ALL_BIT_TUPLES``,
    the tuple of its leaves, one per Eve branch.  A leaf is (Eve branch
    tag, applied (u, v) or None, masses): its Eve branch's probability
    times the Born weight of each Bell outcome under ``convention``, in
    ``BELL_LABEL_ORDER``, as ints over 2**D.  Everything cached is a tuple,
    so no caller can change what the next one reads.  The exact primitives
    are looked up as this module's globals when the walk runs; a test that
    patches one clears this cache first.  Every engine walks first, so
    each raises TypeError here for a non-strategy.
    """
    if not isinstance(attack, EveStrategy):
        raise TypeError(f"not an Eve strategy: {attack!r}")
    start = exact_bell(Convention.OPERATOR_ENCODING, 0, 0)
    walked = []  # per bit tuple, its leaves as (exponent, mass, branch, sel, weights)
    for bits in ALL_BIT_TUPLES:
        i, j, k, l = bits
        exp, branches = 0, [(1, start, "none", None)]
        # each leg: the sender encodes, then Eve taps it
        for code, route in ((_CODES[k, l], Route.B_TO_A), (_CODES[i, j], Route.A_TO_B)):
            exp, branches = _tap(attack, route, exp, [
                (m, apply_pauli_t_exact(s, code), br, sel) for m, s, br, sel in branches
            ])
        if sum(m for m, *_ in branches) != 1 << exp:
            raise InvariantError(f"Eve's branches of bit tuple {bits} do not sum to 1")
        walked.append(leaves := [])
        for mass, state, branch, sel in branches:
            weights = bell_weights_exact(state, convention)
            if sum(weights) != 2 << state.half:
                raise InvariantError(f"Bell weights of bit tuple {bits} do not sum to 1")
            leaves.append((exp + state.half + 1, mass, branch, sel, weights))
    top = max(e for leaves in walked for e, *_ in leaves)
    return top, tuple(
        tuple((branch, sel, tuple(w * (mass << top - e) for w in weights))
              for e, mass, branch, sel, weights in leaves)
        for leaves in walked)


#: the tallies a round adds to a session, one bit each: control and detected
#: (of a control round), then Alice's and Bob's pair errors and the bit errors
#: of Alice's bits i, j and of Bob's bits k, l (of a message round)
_CONTROL_TALLIES = 0b00000011
_MESSAGE_TALLIES = 0b11111100
#: per tally t, the table that maps a tally byte to its bit t
_TALLY_BITS = tuple((bytes(1 << t) + b"\1" * (1 << t)) * (128 >> t) for t in range(8))
#: per mode's tallies, the table that keeps only those bits of a tally byte
_KEEP = {mask: bytes(b & mask for b in range(256))
         for mask in (_CONTROL_TALLIES, _MESSAGE_TALLIES)}


@lru_cache(maxsize=None)
def _outcome_tallies(outcome_conv: Convention, expectation_conv: Convention,
                     comparison: Comparison) -> tuple[bytes, ...]:
    """Per bit tuple (i, j, k, l), in ``ALL_BIT_TUPLES`` order like the
    groups of :func:`_walk`, the row of tallies of each Bell outcome of its
    round, in ``BELL_LABEL_ORDER``, one byte each: bit 0 set (a control
    round), bit 1 whether :func:`control_detected` flags it, and bits 2-7
    what :func:`decode_message` gets wrong in a message round: Alice's and
    Bob's pairs, then the bits i, j, k, l.  ``_TALLY_BITS[t]`` reads bit t
    of a row.  The rows are a tuple of ``bytes``, so no caller can change
    what the next one reads."""
    rows = []
    for i, j, k, l in ALL_BIT_TUPLES:
        config = RoundConfig((k, l), (i, j), Mode.CONTROL, outcome_conv,
                             expectation_conv, comparison)
        row = bytearray()
        for kl in BELL_LABEL_ORDER:
            label = BellLabel(*kl, outcome_conv)
            alice, bob = decode_message(config, label)
            wrong = (alice != (i, j), bob != (k, l),
                     alice[0] != i, alice[1] != j, bob[0] != k, bob[1] != l)
            row.append(1 | control_detected(config, label) << 1
                       | sum(flag << t for t, flag in enumerate(wrong, 2)))
        rows.append(bytes(row))
    return tuple(rows)
