"""Independent brute-force oracle for detection and decode-error probabilities.

Deliberately a separate code path from the package's exact engine: states
are raw numpy amplitude vectors built from literal matrix products, label
conversion is done by overlap search instead of a formula, expected labels
come from simulating the undisturbed round, message bits are decoded by
searching for the undisturbed round that lands on the measured state, and
probabilities are floats snapped to small rationals at the very end.  Eve's
strategies are dispatched on their classes, not through their taps, and
the shipped selection rules' probabilities are written out; any other
selection is read from its ``codes`` and ``weights``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from qdialogue.attacks import (
    CoinIZ,
    DisturbPauli,
    Fixed,
    InterceptMeasure,
    Passive,
    Route,
    UniformAll4,
)

SQ2 = np.sqrt(2.0)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
I2 = np.eye(2, dtype=complex)

# C_{a,b} built directly from the closed-form basis action.
def _c_matrix(a: int, b: int) -> np.ndarray:
    m = np.zeros((2, 2), dtype=complex)
    # image of |1>
    if a ^ b == 0:
        m[:, 1] = (-1) ** a * E1
    else:
        m[:, 1] = (1j) ** a * E0
    # image of |0>
    if a ^ b == 0:
        m[:, 0] = E0
    else:
        m[:, 0] = (-1j) ** a * E1
    return m


def bell_oe(k: int, l: int) -> np.ndarray:
    c = _c_matrix(k, l)
    return (np.kron(E0, c @ E1) + np.kron(E1, c @ E0)) / SQ2


def bell_pp(k: int, l: int) -> np.ndarray:
    v = np.kron(E0, [E0, E1][l]) + (-1.0) ** k * np.kron(E1, [E0, E1][1 ^ l])
    return v / SQ2


def bell_basis(conv: str) -> dict[tuple[int, int], np.ndarray]:
    build = bell_oe if conv == "oe" else bell_pp
    return {(k, l): build(k, l) for k in (0, 1) for l in (0, 1)}


def convert_label(k: int, l: int, from_conv: str) -> tuple[int, int]:
    """Overlap search: the opposite-convention label of the same ray."""
    src = bell_basis(from_conv)[(k, l)]
    dst = bell_basis("pp" if from_conv == "oe" else "oe")
    hits = [kl for kl, v in dst.items() if abs(abs(np.vdot(v, src)) - 1.0) < 1e-9]
    assert len(hits) == 1
    return hits[0]


P_T0 = np.kron(I2, np.outer(E0, E0))
P_T1 = np.kron(I2, np.outer(E1, E1))


def _pauli_t(a: int, b: int) -> np.ndarray:
    return np.kron(I2, _c_matrix(a, b))


def _tap_branches(attack, route: Route, branches):
    if isinstance(attack, InterceptMeasure) and attack.route is route:
        out = []
        for p, phi, br, sel in branches:
            for proj in (P_T0, P_T1):
                psi = proj @ phi
                w = float(np.vdot(psi, psi).real)
                if w < 1e-15:
                    continue
                psi = psi / np.sqrt(w)
                home0 = abs(psi[0]) ** 2 + abs(psi[1]) ** 2
                tag = "a" if abs(psi[2]) ** 2 + abs(psi[3]) ** 2 < 1e-12 else "b"
                assert tag == "b" or home0 > 1e-12
                out.append((p * w, psi, tag, sel))
        return out
    if isinstance(attack, DisturbPauli) and attack.route is route:
        if isinstance(attack.selection, Fixed):
            choices = [(1.0, attack.selection.u, attack.selection.v)]
        elif isinstance(attack.selection, UniformAll4):
            choices = [(0.25, u, v) for u in (0, 1) for v in (0, 1)]
        elif isinstance(attack.selection, CoinIZ):
            choices = [(0.5, 0, 0), (0.5, 1, 1)]
        else:
            # any other selection by its own codes and weights
            codes, weights = attack.selection.codes, attack.selection.weights
            choices = [(w / sum(weights), u, v)
                       for w, (u, v) in zip(weights, codes, strict=True)]
        return [
            (p * q, _pauli_t(u, v) @ phi, br, (u, v))
            for p, phi, br, sel in branches
            for q, u, v in choices
        ]
    return branches


def _snap(p: float) -> Fraction:
    f = Fraction(p).limit_denominator(1024)
    assert abs(float(f) - p) < 1e-9, p
    return f


def _clean(i: int, j: int, k: int, l: int) -> np.ndarray:
    """The undisturbed round's final state: Bob encodes (k, l), Alice (i, j)."""
    return _pauli_t(i, j) @ _pauli_t(k, l) @ bell_oe(0, 0)


def _walk(attack, i: int, j: int, k: int, l: int):
    """Every final (probability, state, branch tag, applied (u, v)) of one
    round with Bob's bits (k, l) and Alice's bits (i, j)."""
    start = _pauli_t(k, l) @ bell_oe(0, 0)
    branches = [(1.0, start, "none", None)]
    branches = _tap_branches(attack, Route.B_TO_A, branches)
    branches = [(p, _pauli_t(i, j) @ phi, br, sel) for p, phi, br, sel in branches]
    return _tap_branches(attack, Route.A_TO_B, branches)


@lru_cache(maxsize=None)
def _round_branches(attack, conv: str, bits):
    """Per Eve branch of the round with bits (i, j, k, l), in the order the
    oracle's walk makes them: its probability, its tag, the applied (u, v)
    or None, and its Bell outcomes' labels and probabilities under
    ``conv``, each probability an exact small rational."""
    out = []
    for p, phi, br, sel in _walk(attack, *bits):
        outcomes = [(kl, _snap(abs(np.vdot(v, phi)) ** 2 / abs(np.vdot(phi, phi))))
                    for kl, v in bell_basis(conv).items()]
        out.append((_snap(p), br, sel, [(kl, w) for kl, w in outcomes if w]))
    return out


def _pick(items, draw: Fraction):
    """The first item whose cumulative probability is above ``draw``, of
    (probability, item) pairs whose probabilities sum to 1."""
    cumulative = Fraction(0)
    for probability, item in items:
        cumulative += probability
        if draw < cumulative:
            return item
    raise AssertionError(f"draw {draw} at or above every cumulative probability")


def oracle_word_leaf(attack, conv: str, bits, w: int):
    """The leaf that a round's 32-bit word ``w`` picks, read from its fields
    against the oracle's own branch probabilities: Eve's branch by the tap
    value, bits 27-26 then 23-0 of w over 2**26, and the Bell outcome by
    the Bell quarter, bits 25-24.  The round's bits (i, j, k, l) are
    ``bits``, not w's top four.  Returns (Eve's branch tag, the applied
    (u, v) or None, the outcome label (k, l) under ``conv``)."""
    tap = Fraction((w >> 26 & 3) << 24 | w & 0xFFFFFF, 2**26)
    branches = _round_branches(attack, conv, tuple(bits))
    _p, br, sel, outcomes = _pick(((b[0], b) for b in branches), tap)
    kl = _pick(((prob, kl) for kl, prob in outcomes), Fraction(w >> 24 & 3, 4))
    return br, sel, kl


def oracle_fold(attack, outcome_conv: str, expected_conv: str, comparison: str):
    """Returns (average, per_case, per_selection) as exact small rationals.

    per_case maps (m, n, branch_tag) -> conditional detection probability;
    per_selection maps Eve's applied (u, v) -> conditional detection
    probability, and is empty when she applies no Pauli.
    """
    out_basis = bell_basis(outcome_conv)
    exp_basis = bell_basis(expected_conv)

    det_mass: dict[tuple[int, int, str], float] = {}
    tot_mass: dict[tuple[int, int, str], float] = {}
    sel_det: dict[tuple[int, int], float] = {}
    sel_tot: dict[tuple[int, int], float] = {}
    total = 0.0

    for i, j, k, l in product((0, 1), repeat=4):
        # expected label: where the undisturbed round actually lands
        clean = _clean(i, j, k, l)
        hits = [
            kl for kl, v in exp_basis.items()
            if abs(abs(np.vdot(v, clean)) - 1.0) < 1e-9
        ]
        assert len(hits) == 1
        expected = hits[0]

        for p, phi, br, sel in _walk(attack, i, j, k, l):
            det = 0.0
            for kl, v in out_basis.items():
                w = abs(np.vdot(v, phi)) ** 2
                if w < 1e-15:
                    continue
                if comparison == "strict-paper":
                    scored = kl
                elif outcome_conv != expected_conv:
                    scored = convert_label(*kl, outcome_conv)
                else:
                    scored = kl
                if scored != expected:
                    det += w
            key = (i ^ k, j ^ l, br)
            mass = p / 16.0
            det_mass[key] = det_mass.get(key, 0.0) + mass * det
            tot_mass[key] = tot_mass.get(key, 0.0) + mass
            total += mass * det
            if sel is not None:
                sel_det[sel] = sel_det.get(sel, 0.0) + mass * det
                sel_tot[sel] = sel_tot.get(sel, 0.0) + mass

    per_case = {
        key: _snap(det_mass[key] / tot_mass[key]) for key in det_mass
    }
    per_selection = {
        sel: _snap(sel_det[sel] / sel_tot[sel]) for sel in sel_det
    }
    return _snap(total), per_case, per_selection


def oracle_detection(attack, outcome_conv: str, expected_conv: str,
                     comparison: str):
    """Returns (average, per_case) of :func:`oracle_fold`."""
    average, per_case, _per_selection = oracle_fold(
        attack, outcome_conv, expected_conv, comparison
    )
    return average, per_case


def _decode(outcome: np.ndarray, encode) -> tuple[int, int]:
    """Overlap search: the bit pair whose undisturbed round, ``encode(a, b)``,
    lands on the measured Bell state."""
    hits = [
        ab for ab in product((0, 1), repeat=2)
        if abs(abs(np.vdot(outcome, encode(*ab))) - 1.0) < 1e-9
    ]
    assert len(hits) == 1
    return hits[0]


def oracle_message_errors(attack) -> dict[str, Fraction]:
    """Message-mode decode-error probabilities under operator-encoding
    outcome labels, as exact small rationals.

    Each party decodes the other's pair as the pair that would have sent an
    undisturbed round to the measured Bell state.  Keys: ``alice_to_bob``
    (Bob misreads Alice's pair), ``bob_to_alice``, and ``alice_bit0`` ...
    ``bob_bit1`` for single bits.
    """
    names = ("alice_to_bob", "bob_to_alice",
             "alice_bit0", "alice_bit1", "bob_bit0", "bob_bit1")
    errors = dict.fromkeys(names, 0.0)
    for i, j, k, l in product((0, 1), repeat=4):
        for p, phi, _br, _sel in _walk(attack, i, j, k, l):
            for v in bell_basis("oe").values():
                w = abs(np.vdot(v, phi)) ** 2
                if w < 1e-15:
                    continue
                alice = _decode(v, lambda a, b: _clean(a, b, k, l))
                bob = _decode(v, lambda a, b: _clean(i, j, a, b))
                wrong = (alice != (i, j), bob != (k, l),
                         alice[0] != i, alice[1] != j, bob[0] != k, bob[1] != l)
                for name, flag in zip(names, wrong):
                    errors[name] += p * w / 16.0 * flag
    return {name: _snap(e) for name, e in errors.items()}
