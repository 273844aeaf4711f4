"""Exact integer arithmetic for the enumeration engine.

Every state reached in the protocol has amplitudes of the form
z / sqrt(2)**half with z a Gaussian integer, so a state is a 4-tuple of
(re, im) integer pairs plus one shared square-root-of-two exponent.  All
probabilities come out as exact dyadic rationals; no floating point enters
this path anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .qcore import (
    BELL_LABEL_ORDER,
    BellLabel,
    Convention,
    InvariantError,
    PauliCode,
    _ACTION,
)

Gaussian = tuple[int, int]

_ZERO: Gaussian = (0, 0)


def _gmul(x: Gaussian, y: Gaussian) -> Gaussian:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gconj(x: Gaussian) -> Gaussian:
    return (x[0], -x[1])


def _gadd(x: Gaussian, y: Gaussian) -> Gaussian:
    return (x[0] + y[0], x[1] + y[1])


def _gabs2(x: Gaussian) -> int:
    return x[0] * x[0] + x[1] * x[1]


@dataclass(frozen=True)
class ExactState:
    """Amplitudes z[x] / sqrt(2)**half over the |h t> basis."""

    z: tuple[Gaussian, Gaussian, Gaussian, Gaussian]
    half: int

    def norm_sq(self) -> Fraction:
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
        z[r1] = _gadd(z[r1], p1.as_gaussian())
        z[2 + r0] = _gadd(z[2 + r0], p0.as_gaussian())
    else:
        z[l] = (1, 0)
        z[2 + (1 ^ l)] = ((-1) ** k, 0)
    return ExactState(tuple(z), 1)


_EXACT_BELL = {
    (conv, k, l): exact_bell(conv, k, l)
    for conv in Convention
    for k in (0, 1)
    for l in (0, 1)
}


def apply_pauli_t_exact(state: ExactState, code: PauliCode) -> ExactState:
    z = state.z
    out: list[Gaussian] = [_ZERO] * 4
    for t_bit in (0, 1):
        phase, r = _ACTION[(code.a, code.b, t_bit)]
        g = phase.as_gaussian()
        out[r] = _gadd(out[r], _gmul(g, z[t_bit]))
        out[2 + r] = _gadd(out[2 + r], _gmul(g, z[2 + t_bit]))
    return ExactState(tuple(out), state.half)


def measure_t_branches(state: ExactState) -> list[tuple[Fraction, ExactState, int]]:
    """All nonzero branches of a computational t-measurement.

    Returns (probability, collapsed renormalized state, t outcome) triples.
    Collapse probabilities in this protocol are always powers of 1/2, which
    keeps renormalization inside the Gaussian-integer ring.
    """
    branches = []
    denom = 2 ** state.half
    for outcome in (0, 1):
        kept = tuple(
            state.z[x] if (x & 1) == outcome else _ZERO for x in range(4)
        )
        weight = sum(_gabs2(g) for g in kept)
        if weight == 0:
            continue
        prob = Fraction(weight, denom)
        if prob == 1:
            collapsed = ExactState(kept, state.half)
        else:
            # prob must be 1 / 2**m for exact renormalization
            if prob.numerator != 1 or prob.denominator & (prob.denominator - 1):
                raise InvariantError(f"non-dyadic collapse probability {prob}")
            m = prob.denominator.bit_length() - 1
            collapsed = ExactState(kept, state.half - m)
        branches.append((prob, collapsed, outcome))
    return branches


def bell_weights_exact(
    state: ExactState, convention: Convention
) -> dict[BellLabel, Fraction]:
    """Exact Born weights of a Bell measurement under a convention."""
    out = {}
    denom = 2 ** (state.half + 1)
    for k, l in BELL_LABEL_ORDER:
        basis = _EXACT_BELL[(convention, k, l)]
        inner = _ZERO
        for x in range(4):
            inner = _gadd(inner, _gmul(_gconj(basis.z[x]), state.z[x]))
        out[BellLabel(k, l, convention)] = Fraction(_gabs2(inner), denom)
    return out
