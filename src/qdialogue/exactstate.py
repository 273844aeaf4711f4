"""Exact integer arithmetic and the exact walk over a round's tree.

Every state reached in the protocol has amplitudes of the form
z / sqrt(2)**half with z a Gaussian integer, so a state is a 4-tuple of
(re, im) integer pairs plus one shared square-root-of-two exponent.
:func:`bell_weights_exact` returns a Bell measurement's Born weights as
integer numerators over 2**(half + 1), and :func:`measure_t_branches` a
t-measurement's parts unnormalized, at the same exponent, so no state is
ever rescaled.  The exact Bell states and their conjugates are read from
the table that names the Bell states once,
:data:`qdialogue.model.BELL_NUMERATORS`.

One exact walk yields every nonzero leaf of a round's tree, per bit tuple,
Eve branch and Bell outcome, in one flat tuple, each mass an int over one
power of two, Eve's draw weights included.  :func:`_walk` makes it once
per strategy and outcome convention, and :func:`_outcome_tallies` applies
the rules of :mod:`qdialogue.model` once per conventions and comparison:
one tally byte per bit tuple and Bell outcome (control, detected and the
one error of a message round): a leaf's tallies are
``rows[place << 2 | outcome]``.  The samplers (:mod:`qdialogue.sampling`)
and the exact reports (:mod:`qdialogue.analysis`) read both caches, and the
float round (:func:`qdialogue.protocol.run_round`) reads its round's tally
byte, so no engine applies the rules on its own.  Neither a float nor a
``Fraction`` enters this path (only :meth:`ExactState.norm_sq` builds one),
and the module sits below the float round simulator, so the samplers walk
without loading it.
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
    _draw_total,
    control_detected,
    message_error,
)

Gaussian = tuple[int, int]

_ZERO: Gaussian = (0, 0)


def _gabs2(x: Gaussian) -> int:
    return x[0] * x[0] + x[1] * x[1]


class ExactState(FrozenValue):
    """Amplitudes z[x] / sqrt(2)**half over the |h t> basis."""

    __slots__ = ("z", "half")

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


def measure_t_branches(state: ExactState) -> list[tuple[ExactState, int]]:
    """The nonzero parts P_t psi of ``state`` under a computational
    t-measurement, each with its outcome t, in t order.  A part is not
    renormalized: it keeps ``state.half``, so its norm is its outcome's
    probability times the state's."""
    parts = []
    for t in (0, 1):
        part = tuple(g if (x & 1) == t else _ZERO for x, g in enumerate(state.z))
        if any(map(_gabs2, part)):
            parts.append((ExactState(part, state.half), t))
    return parts


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
    over 2**exp; a measurement forwards each part of a state at its mass,
    and the weights of a selection, checked by :func:`_draw_total`,
    multiply them; returns the new exponent and the new branches."""
    action = attack.tap(route)
    if action is None:
        return exp, branches
    if action is MEASURE:
        return exp, [(mass, part, _home_branch(part), sel)
                     for mass, state, _branch, sel in branches
                     for part, _t in measure_t_branches(state)]
    weights, total = action.weights, _draw_total(action)
    choices = [(w, _CODES[uv], uv) for w, uv in zip(weights, action.codes)]
    return exp + total.bit_length() - 1, [
        (mass * w, apply_pauli_t_exact(state, code), branch, uv)
        for mass, state, branch, _sel in branches for w, code, uv in choices]


@lru_cache(maxsize=None)
def _walk(attack: EveStrategy, convention: Convention) -> tuple[int, tuple]:
    """The exact walk, once per strategy and outcome convention: every leaf
    of each encoding-bit tuple's round.

    Returns (D, leaves): every nonzero leaf, in walk order, so sorted by
    (place, Eve branch index, outcome), as one flat tuple of (place, Eve
    branch index, Eve branch tag, applied (u, v) or None, outcome, mass):
    the bit tuple's place in ``ALL_BIT_TUPLES``, the outcome's index in
    ``BELL_LABEL_ORDER``, and the branch's draw mass times the outcome's
    Born weight on its unnormalized state under ``convention``, an int over
    2**D, one D for every bit tuple (checked): the selection's exponent +
    ``half`` + 1.
    Everything cached is a tuple, so no caller can change what the next one
    reads.  The exact primitives are looked up as this module's globals
    when the walk runs; a test that patches one clears this cache first.
    Every engine walks first, so each raises TypeError here for a
    non-strategy.
    """
    if not isinstance(attack, EveStrategy):
        raise TypeError(f"not an Eve strategy: {attack!r}")
    start = exact_bell(Convention.OPERATOR_ENCODING, 0, 0)
    exps, leaves = set(), []
    for place, bits in enumerate(ALL_BIT_TUPLES):
        i, j, k, l = bits
        exp, branches = 0, [(1, start, "none", None)]
        # each leg: the sender encodes, then Eve taps it
        for code, route in ((_CODES[k, l], Route.B_TO_A), (_CODES[i, j], Route.A_TO_B)):
            exp, branches = _tap(attack, route, exp, [
                (m, apply_pauli_t_exact(s, code), br, sel) for m, s, br, sel in branches
            ])
        exps.add(exp)
        # a branch's probability is its mass times its state's norm
        if sum(m * sum(map(_gabs2, s.z)) for m, s, *_ in branches) != 1 << exp + start.half:
            raise InvariantError(f"Eve's branches of bit tuple {bits} do not sum to 1")
        for b, (mass, state, branch, sel) in enumerate(branches):
            weights = bell_weights_exact(state, convention)
            if sum(weights) != 2 * sum(map(_gabs2, state.z)):
                raise InvariantError(f"Bell weights of bit tuple {bits} do not sum to its norm")
            leaves += [(place, b, branch, sel, x, mass * w) for x, w in enumerate(weights) if w]
    if len(exps) != 1:
        raise InvariantError(f"the bit tuples' Eve branches are over exponents {sorted(exps)}")
    return exp + start.half + 1, tuple(leaves)


#: the tallies a round adds to a session, one bit each: control and detected
#: (of a control round), then the pair error and the Pauli (m, n) of the one
#: error of a message round, which both parties' decodes share
_CONTROL_TALLIES = 0b00011
_MESSAGE_TALLIES = 0b11100
#: per mode's tallies, the table that keeps only those bits of a tally byte
_KEEP = {mask: bytes(b & mask for b in range(256))
         for mask in (_CONTROL_TALLIES, _MESSAGE_TALLIES)}


@lru_cache(maxsize=None)
def _outcome_tallies(outcome_conv: Convention, expectation_conv: Convention,
                     comparison: Comparison) -> bytes:
    """The tallies of each Bell outcome of each bit tuple's round, one byte
    each, in one ``bytes.translate`` table that no caller can change: a
    leaf of :func:`_walk` at ``place`` and ``outcome`` has the tallies
    ``rows[place << 2 | outcome]``, and the 192 bytes past the 64 leaves'
    are 0.  Bit 0 is set (a control round), bit 1 is whether
    :func:`control_detected` flags it, and bits 3 and 4 are the error
    (m, n) of :func:`message_error`, by which Bob's decode of (i, j) and
    Alice's of (k, l) both miss; bit 2, a pair error, is m or n.  Bits 5-7
    are 0."""
    rows = bytearray()
    labels = [BellLabel(k, l, outcome_conv) for k, l in BELL_LABEL_ORDER]
    for i, j, k, l in ALL_BIT_TUPLES:
        config = RoundConfig((k, l), (i, j), Mode.CONTROL, outcome_conv,
                             expectation_conv, comparison)
        for label in labels:
            m, n = message_error(config, label)
            rows.append(1 | control_detected(config, label) << 1
                        | (m | n) << 2 | m << 3 | n << 4)
    return bytes(rows.ljust(256, b"\0"))
