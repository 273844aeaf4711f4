"""Exact integer arithmetic for the enumeration engine.

Every state reached in the protocol has amplitudes of the form
z / sqrt(2)**half with z a Gaussian integer, so a state is a 4-tuple of
(re, im) integer pairs plus one shared square-root-of-two exponent.  Every
probability is dyadic: :func:`bell_weights_exact` returns a Bell
measurement's Born weights as integer numerators over 2**(half + 1) and
:func:`measure_t_branches` a t-measurement's over 2**half, and the exact
walk in :mod:`qdialogue.analysis` carries every mass, Eve's draw weights
included, as an int over a power of two: neither a float nor a
``Fraction`` enters this path (only :meth:`ExactState.norm_sq` builds one).
"""

from __future__ import annotations

from .qcore import (
    BELL_LABEL_ORDER,
    Convention,
    FrozenValue,
    InvariantError,
    PauliCode,
    _ACTION,
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
    """Exact Bell state, amplitudes over sqrt(2)."""
    z: list[Gaussian] = [_ZERO] * 4
    if convention is Convention.OPERATOR_ENCODING:
        p1, r1 = _ACTION[(k, l, 1)]
        p0, r0 = _ACTION[(k, l, 0)]
        z[r1] = p1.as_gaussian()
        z[2 + r0] = p0.as_gaussian()
    else:
        z[l] = (1, 0)
        z[2 + (1 ^ l)] = ((-1) ** k, 0)
    return ExactState(tuple(z), 1)


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
    conv: tuple(
        tuple((x, re, -im) for x, (re, im) in enumerate(exact_bell(conv, k, l).z)
              if re or im)
        for k, l in BELL_LABEL_ORDER
    )
    for conv in Convention
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
