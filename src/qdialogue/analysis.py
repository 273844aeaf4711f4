"""Exact detection-probability enumeration, Monte Carlo cross-checks, and
the side-by-side report of the disputed averages.

One exact walk yields every leaf of a round's tree: the 16 encoding-bit
tuples, the branches of Eve's tap action, and the four Bell outcomes, all
weighted by exact dyadic rationals.  :func:`enumerate_exact` folds the
protocol's detection rule over the leaves and :func:`message_error_rate`
its message decoder.  The Monte Carlo estimator samples the same tree with
the round simulator's float arithmetic, as a statistical cross-check: its
table is built from :func:`protocol.round_trees`, the float leg walk that
:func:`protocol.run_session` samples too, and resolved with numpy, which
only this estimator imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Optional

from .attacks import MEASURE, EveStrategy, InterceptMeasure, Route
from .exactstate import (
    ExactState,
    _gabs2,
    apply_pauli_t_exact,
    bell_weights_exact,
    exact_bell,
    measure_t_branches,
)
# run_round is not called here, but stays a module attribute: the benchmark's
# tracer (bench/tracer.py) wraps it at this lookup site.
from .protocol import (
    Comparison,
    Mode,
    RoundConfig,
    control_detected,
    decode_message,
    round_trees,
    run_round,
)
from .qcore import (
    Convention,
    InvariantError,
    PauliCode,
    RandomSource,
    branch_index,
)

BitTuple = tuple[int, int, int, int]

ALL_BIT_TUPLES: tuple[BitTuple, ...] = tuple(product((0, 1), repeat=4))

#: rounds whose draws :func:`monte_carlo` takes and resolves at once; its
#: memory grows with this, not with the number of rounds
MC_CHUNK_ROUNDS = 2048


@dataclass(frozen=True)
class CaseDescriptor:
    """One of the four (m, n) cases, per Eve branch.

    m = i xor k, n = j xor l, parity = m xor n; eve_branch is 'a'/'b' for
    the two intercept collapses and 'none' when the attack has no
    measurement branch.
    """

    m: int
    n: int
    parity: int
    eve_branch: str = "none"

    def __post_init__(self) -> None:
        if self.parity != self.m ^ self.n:
            raise ValueError("parity must equal m xor n")

    ROMAN = {(0, 0): "i", (0, 1): "ii", (1, 0): "iii", (1, 1): "iv"}

    def roman(self) -> str:
        return self.ROMAN[(self.m, self.n)]


@dataclass
class DetectionReport:
    """Exact per-case and average detection probabilities."""

    attack: EveStrategy
    outcome_convention: Convention
    expectation_convention: Convention
    comparison: Comparison
    per_case: dict[CaseDescriptor, Fraction] = field(default_factory=dict)
    branch_averages: dict[str, Fraction] = field(default_factory=dict)
    average: Fraction = Fraction(0)
    per_selection: Optional[dict[tuple[int, int], Fraction]] = None


@dataclass(frozen=True)
class McEstimate:
    mean: float
    standard_error: float
    n: int
    seed: int
    generator_id: str


@dataclass(frozen=True)
class MessageErrorReport:
    """Exact pair- and bit-level decode error probabilities (message mode)."""

    attack: EveStrategy
    alice_to_bob: Fraction   # Bob mis-decodes Alice's pair
    bob_to_alice: Fraction   # Alice mis-decodes Bob's pair
    per_bit: dict[str, Fraction]


@dataclass(frozen=True)
class ClaimsReport:
    paper_claim: Fraction
    cai_claim: Fraction
    strict_paper_average: Fraction
    consistent_value: Fraction
    explanation: str


@lru_cache(maxsize=None)
def _draw_weights(thresholds: tuple[float, ...]) -> tuple[Fraction, ...]:
    """Exact probability of each branch of a uniform draw: the gaps between
    its thresholds, which are dyadic, so Fraction holds them exactly."""
    bounds = (0, *map(Fraction, thresholds), 1)
    return tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))


def _home_branch(state: ExactState) -> str:
    home0 = _gabs2(state.z[0]) + _gabs2(state.z[1])
    home1 = _gabs2(state.z[2]) + _gabs2(state.z[3])
    if home1 == 0:
        return "a"
    if home0 == 0:
        return "b"
    raise InvariantError("home qubit not definite after intercept")


def _tap(attack: EveStrategy, route: Route, branches: list) -> list:
    """Expand every branch through one channel tap."""
    action = attack.tap(route)
    if action is None:
        return branches
    if action is MEASURE:
        return [
            (prob * p, collapsed, _home_branch(collapsed), sel)
            for prob, state, _branch, sel in branches
            for p, collapsed, _t in measure_t_branches(state)
        ]
    choices = tuple(zip(_draw_weights(action.thresholds), action.codes))
    return [
        (prob * w, apply_pauli_t_exact(state, PauliCode(u, v)), branch, (u, v))
        for prob, state, branch, _sel in branches
        for w, (u, v) in choices
    ]


def _leaves(
    attack: EveStrategy, bits: BitTuple, convention: Convention
) -> Iterator[tuple[Fraction, str, Optional[tuple[int, int]], dict]]:
    """The exact walk: every leaf of one encoding-bit tuple's round, grouped
    by Eve branch.

    Yields (Eve-branch probability, eve branch tag, applied (u, v) or None,
    Born weight of each Bell outcome under ``convention``).
    """
    i, j, k, l = bits
    branches = [(Fraction(1), exact_bell(Convention.OPERATOR_ENCODING, 0, 0),
                 "none", None)]
    # each leg: the sender encodes, then Eve taps it
    for code, route in ((PauliCode(k, l), Route.B_TO_A),
                        (PauliCode(i, j), Route.A_TO_B)):
        branches = _tap(attack, route, [
            (p, apply_pauli_t_exact(s, code), br, sel) for p, s, br, sel in branches
        ])
    for prob, state, branch, sel in branches:
        yield prob, branch, sel, bell_weights_exact(state, convention)


def _control_config(bits: BitTuple, outcome_convention: Convention,
                    expectation_convention: Convention,
                    comparison: Comparison) -> RoundConfig:
    """The control round with encoding bits (i, j, k, l)."""
    i, j, k, l = bits
    return RoundConfig((k, l), (i, j), Mode.CONTROL, outcome_convention,
                       expectation_convention, comparison)


def enumerate_exact(
    attack: EveStrategy,
    outcome_convention: Convention = Convention.OPERATOR_ENCODING,
    expectation_convention: Convention = Convention.OPERATOR_ENCODING,
    comparison: Comparison = Comparison.CONVERTED,
    case_order: Optional[Iterable[BitTuple]] = None,
) -> DetectionReport:
    """Exhaustive exact control-round analysis of one attack.

    Enumerates all 16 encoding-bit tuples uniformly, every Eve branch with
    its exact probability, and every Bell outcome with its exact Born
    weight, and folds :func:`protocol.control_detected` over the leaves.
    Everything stays in dyadic rational arithmetic; ``case_order`` only
    permutes the fold (results are order-independent, which the test suite
    asserts).
    """
    bit_tuples = tuple(case_order) if case_order is not None else ALL_BIT_TUPLES
    if sorted(bit_tuples) != sorted(ALL_BIT_TUPLES):
        raise ValueError("case_order must be a permutation of all 16 bit tuples")

    det_mass: dict[CaseDescriptor, Fraction] = {}
    tot_mass: dict[CaseDescriptor, Fraction] = {}
    sel_det: dict[tuple[int, int], Fraction] = {}
    sel_tot: dict[tuple[int, int], Fraction] = {}
    case_weight = Fraction(1, len(bit_tuples))

    for bits in bit_tuples:
        i, j, k, l = bits
        config = _control_config(
            bits, outcome_convention, expectation_convention, comparison
        )
        for prob, branch, sel, weights in _leaves(attack, bits, outcome_convention):
            detected = sum(
                w for outcome, w in weights.items()
                if w and control_detected(config, outcome)
            )
            key = CaseDescriptor(i ^ k, j ^ l, i ^ k ^ j ^ l, branch)
            mass = case_weight * prob
            hit = mass * detected
            det_mass[key] = det_mass.get(key, 0) + hit
            tot_mass[key] = tot_mass.get(key, 0) + mass
            if sel is not None:
                sel_det[sel] = sel_det.get(sel, 0) + hit
                sel_tot[sel] = sel_tot.get(sel, 0) + mass

    report = DetectionReport(
        attack=attack,
        outcome_convention=outcome_convention,
        expectation_convention=expectation_convention,
        comparison=config.comparison,
        average=sum(det_mass.values()),
    )
    report.per_case = {key: det_mass[key] / tot_mass[key] for key in det_mass}
    for br in sorted({key.eve_branch for key in det_mass}):
        det = sum(det_mass[c] for c in det_mass if c.eve_branch == br)
        tot = sum(tot_mass[c] for c in tot_mass if c.eve_branch == br)
        report.branch_averages[br] = det / tot
    if sel_tot:
        report.per_selection = {
            uv: sel_det[uv] / sel_tot[uv] for uv in sorted(sel_tot)
        }
    return report


def paper_case_table() -> DetectionReport:
    """The published case table: intercept-measure on the outbound route with
    parity-phase outcome labels scored strictly against operator-encoding
    expected labels.  Per-case values 1, 1, 1/2, 1/2 with average 3/4 for
    both branches."""
    return enumerate_exact(
        InterceptMeasure(Route.B_TO_A),
        outcome_convention=Convention.PARITY_PHASE,
        expectation_convention=Convention.OPERATOR_ENCODING,
        comparison=Comparison.STRICT_PAPER,
    )


def _round_table(
    attack: EveStrategy,
    outcome_convention: Convention,
    expectation_convention: Convention,
    comparison: Comparison,
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Lookup arrays that resolve a control round from its uniform draws.

    Node ``b * B + t`` is bit tuple ``ALL_BIT_TUPLES[b]`` with Eve's tap
    branch t, of B per tuple.  Returns B; the tap thresholds, shape
    (16, B - 1); the Bell thresholds, shape (16 B, 3); and the detected
    flag of each Bell outcome slot, shape (16 B, 4).  The thresholds are
    those of :func:`protocol.round_trees`, the leg walk the round simulator
    samples, with the Bell thresholds padded with +inf so that every node
    has three.
    """
    import numpy as np

    tap_thresholds, bell_thresholds, detected = [], [], []
    for (k, l, i, j), (taps, branches) in zip(
        ALL_BIT_TUPLES, round_trees(attack, outcome_convention)
    ):
        config = _control_config(
            (i, j, k, l), outcome_convention, expectation_convention, comparison
        )
        tap_thresholds.append(taps)
        for thresholds, labels in branches:
            bell_thresholds.append(thresholds + [math.inf] * (3 - len(thresholds)))
            flags = [control_detected(config, label) for label in labels]
            detected.append(flags + [False] * (4 - len(flags)))
    return (
        len(branches),
        np.array(tap_thresholds),
        np.array(bell_thresholds),
        np.array(detected),
    )


def monte_carlo(
    attack: EveStrategy,
    outcome_convention: Convention = Convention.OPERATOR_ENCODING,
    expectation_convention: Convention = Convention.OPERATOR_ENCODING,
    comparison: Comparison = Comparison.CONVERTED,
    n: int = 100_000,
    seed: int = 0,
) -> McEstimate:
    """Detection frequency over n simulated control rounds, fixed seed.

    One sequential stream drives both the encoding bits and the round
    randomness, so the estimate is fully determined by (seed, n).  Each
    round takes consecutive draws: four for the bits (k, l, i, j), each 1
    when its draw is below 1/2; one for Eve's tap when her strategy draws
    (intercept, uniform4, coin-iz); and one for the Bell measurement.
    That is 5 draws a round for passive and fixed-Pauli strategies, 6 for
    the rest, exactly as :func:`run_round` consumes them, so the estimate
    is the one the round-by-round loop gives.  Rounds are resolved
    ``MC_CHUNK_ROUNDS`` at a time by lookups in a table of the round's
    finite tree, so memory is bounded by the chunk, whatever n is.
    """
    import numpy as np

    if n < 1:
        raise ValueError("n must be >= 1")
    rng = RandomSource(seed)
    branches, tap_thresholds, bell_thresholds, detected = _round_table(
        attack, outcome_convention, expectation_convention, comparison
    )
    draws = 5 if branches == 1 else 6
    bit_values = np.array([8, 4, 2, 1])
    detections = 0
    for start in range(0, n, MC_CHUNK_ROUNDS):
        rounds = min(MC_CHUNK_ROUNDS, n - start)
        u = rng.uniforms(rounds * draws).reshape(rounds, draws)
        bits = (u[:, :4] < 0.5) @ bit_values
        node = bits * branches
        if branches > 1:
            node += branch_index(tap_thresholds[bits].T, u[:, 4])
        slot = branch_index(bell_thresholds[node].T, u[:, -1])
        detections += int(np.count_nonzero(detected[node, slot]))
    mean = detections / n
    return McEstimate(
        mean=mean,
        standard_error=math.sqrt(mean * (1.0 - mean) / n),
        n=n,
        seed=seed,
        generator_id=RandomSource.GENERATOR_ID,
    )


def message_error_rate(attack: EveStrategy) -> MessageErrorReport:
    """Exact decode-error probabilities in message mode (operator-encoding
    labels), folding :func:`protocol.decode_message` over the leaves of the
    same exact walk."""
    conv = Convention.OPERATOR_ENCODING
    names = ("alice_to_bob", "bob_to_alice",
             "alice_bit0", "alice_bit1", "bob_bit0", "bob_bit1")
    errors = dict.fromkeys(names, Fraction(0))
    case_weight = Fraction(1, 16)
    for bits in ALL_BIT_TUPLES:
        i, j, k, l = bits
        config = RoundConfig(bob_bits=(k, l), alice_bits=(i, j))
        for prob, _branch, _sel, weights in _leaves(attack, bits, conv):
            mass = case_weight * prob
            for outcome, w in weights.items():
                if not w:
                    continue
                leaf = mass * w
                alice, bob = decode_message(config, outcome)
                wrong = (alice != (i, j), bob != (k, l),
                         alice[0] != i, alice[1] != j, bob[0] != k, bob[1] != l)
                for name, flag in zip(names, wrong):
                    if flag:
                        errors[name] += leaf
    return MessageErrorReport(
        attack=attack,
        alice_to_bob=errors.pop("alice_to_bob"),
        bob_to_alice=errors.pop("bob_to_alice"),
        per_bit=errors,
    )


_CLAIMS_EXPLANATION = (
    "The two figures disagree because the published case table scores "
    "parity-phase outcome labels against operator-encoding expected labels "
    "without converting between the two naming schemes; the same index pair "
    "names different physical Bell states in the two schemes (label_map "
    "gives the bridge).  Scoring outcome and expectation in one scheme "
    "yields the convention-consistent figure instead.  No ruling is made on "
    "which bookkeeping is intended."
)


def compare_claims() -> ClaimsReport:
    """Side-by-side report of the disputed intercept-measure averages."""
    strict = paper_case_table().average
    consistent = enumerate_exact(
        InterceptMeasure(Route.B_TO_A),
        outcome_convention=Convention.OPERATOR_ENCODING,
        expectation_convention=Convention.OPERATOR_ENCODING,
        comparison=Comparison.CONVERTED,
    ).average
    return ClaimsReport(
        paper_claim=Fraction(3, 4),
        cai_claim=Fraction(1, 2),
        strict_paper_average=strict,
        consistent_value=consistent,
        explanation=_CLAIMS_EXPLANATION,
    )
