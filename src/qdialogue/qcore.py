"""The float two-qubit layer of the round simulator.

Basis ordering, the Pauli sign convention and the two Bell-label
conventions are fixed in :mod:`qdialogue.model`, which holds the exact
algebra; this module renders it in floats.  ``pauli_matrix(PauliCode(1, 0))``
is ``[[0, +i], [-i, 0]]``, the *negative* of the textbook sigma_y, and the
float Bell states are read from :data:`~qdialogue.model.BELL_NUMERATORS`,
the one table that names them.

:class:`TwoQubitState` is a :class:`~qdialogue.model.FrozenValue` whose
one constructor checks the norm of every state, copy and pickle.

The Born-rule measurements here serve the round simulator alone
(:func:`qdialogue.protocol.run_round`): the samplers and the exact
reports read the tree of the exact walk in :mod:`qdialogue.exactstate`,
and a process that only samples never loads this module.  numpy is
imported only by the two functions that return arrays
(:func:`pauli_matrix`, :meth:`TwoQubitState.as_array`), so the round
simulator runs without it.
The exact names this module's code reads, and those that callers import
from here, are imported from :mod:`qdialogue.model`.
"""

from __future__ import annotations

# RandomSource, pauli_action_closed_form and pauli_compose are imported
# from here by tests/test_acceptance.py and bench/tracer.py
from .model import (
    _ACTION,
    BELL_LABEL_ORDER,
    BELL_NUMERATORS,
    BellLabel,
    Convention,
    FrozenValue,
    InvariantError,
    PauliCode,
    RandomSource,
    pauli_action_closed_form,
    pauli_compose,
)

SQRT_HALF = 2.0 ** -0.5

#: tolerance for algebraic identities (orthonormality, recomposition, norms)
ALG_TOL = 1e-12
#: tolerance used when picking the anchor amplitude for phase canonicalization
CANON_TOL = 1e-9


class TwoQubitState(FrozenValue):
    """Four complex amplitudes over |h t>, index = 2*h + t.

    Immutable; normalization is checked on construction, copies and
    pickles included.  Two states are equal when their amplitudes are.
    """

    __slots__ = ("amp",)

    def __init__(self, amp):
        amp = tuple(complex(a) for a in amp)
        if len(amp) != 4:
            raise ValueError("TwoQubitState needs exactly 4 amplitudes")
        n = sum(abs(a) ** 2 for a in amp)
        if abs(n - 1.0) > ALG_TOL:
            raise InvariantError(f"state norm^2 = {n!r}, not 1")
        object.__setattr__(self, "amp", amp)

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amp)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self.amp, dtype=complex)

    def __repr__(self) -> str:
        return f"TwoQubitState({list(self.amp)!r})"


def pauli_matrix(code: PauliCode) -> np.ndarray:
    """2x2 matrix of C_{a,b}; column c holds the image of |c>."""
    import numpy as np

    m = np.zeros((2, 2), dtype=complex)
    for c in (0, 1):
        phase, r = _ACTION[(code.a, code.b, c)]
        m[r, c] = phase.as_complex()
    return m


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
    return TwoQubitState(amp)


_BELL_STATES = {
    (conv, k, l): TwoQubitState(complex(re, im) * SQRT_HALF for re, im in z)
    for conv, states in BELL_NUMERATORS.items()
    for (k, l), z in zip(BELL_LABEL_ORDER, states)
}

#: per convention, in ``BELL_LABEL_ORDER``, each label and its state's
#: conjugated amplitudes
_BELL_CONJ = {
    conv: tuple((BellLabel(k, l, conv),
                 tuple(a.conjugate() for a in _BELL_STATES[(conv, k, l)].amp))
                for k, l in BELL_LABEL_ORDER)
    for conv in Convention
}


def bell_state(convention: Convention, k: int, l: int) -> TwoQubitState:
    """The Bell state named (k, l) under the given convention."""
    return _BELL_STATES[(convention, k, l)]


def bell_decompose(
    state: TwoQubitState, convention: Convention
) -> dict[BellLabel, complex]:
    """Inner products <Psi_{k,l}|state> for all four labels of a convention."""
    a = state.amp
    return {label: b[0] * a[0] + b[1] * a[1] + b[2] * a[2] + b[3] * a[3]
            for label, b in _BELL_CONJ[convention]}


def recompose(coeffs: dict[BellLabel, complex]) -> TwoQubitState:
    """Rebuild a state from its Bell coefficients (inverse of bell_decompose)."""
    amp = [0j, 0j, 0j, 0j]
    for label, c in coeffs.items():
        b = _BELL_STATES[(label.convention, label.k, label.l)].amp
        for x in range(4):
            amp[x] += c * b[x]
    return TwoQubitState(amp)


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
        return 0, TwoQubitState((a0 * scale, 0j, a2 * scale, 0j)), p0
    p1 = 1.0 - p0
    scale = p1 ** -0.5
    return 1, TwoQubitState((0j, a1 * scale, 0j, a3 * scale)), p1


def measure_bell(
    state: TwoQubitState, convention: Convention, rand: RandomSource
) -> tuple[BellLabel, float]:
    """Bell measurement under a convention: draws a label by its Born weight,
    the last nonzero one when rounding leaves the draw above every cumulative
    weight.  Weights that sum below ``1 - ALG_TOL`` raise InvariantError."""
    u = rand.random()
    acc = 0.0
    entries = []  # (cumulative weight, label, Born weight) of nonzero labels
    for label, c in bell_decompose(state, convention).items():
        w = c.real * c.real + c.imag * c.imag
        if w > 0.0:
            acc += w
            entries.append((acc, label, w))
    if acc < 1.0 - ALG_TOL:
        raise InvariantError(f"Bell weights sum to {acc!r}, not 1")
    _acc, label, w = next((e for e in entries if u < e[0]), entries[-1])
    return label, w


def equal_up_to_global_phase(s1: TwoQubitState, s2: TwoQubitState) -> bool:
    """True iff s1 = c * s2 for some unit scalar c, within ``ALG_TOL`` per
    amplitude.

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
    return max(abs(x - y) for x, y in zip(c1, c2)) <= ALG_TOL
