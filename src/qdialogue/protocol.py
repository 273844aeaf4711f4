"""Round choreography of the two-way dialogue protocol.

One round: Bob prepares the (0,0) Bell pair, encodes his bits on the travel
qubit, sends it to Alice (Eve may tap), Alice encodes her bits, the qubit
returns (Eve may tap again), and Bob performs a Bell measurement.

Message rounds decode both parties' bits from the announced outcome label;
control rounds compare the outcome against the label expected in Eve's
absence.  Eve cannot tell the two modes apart: the quantum evolution is
identical, only post-measurement bookkeeping differs.

The :class:`Comparison` rule on :class:`RoundConfig` decides how a measured
label is tested against the expected one when the two conventions differ:
``STRICT_PAPER`` compares the raw index pairs as-is, ``CONVERTED`` maps the
outcome into the expectation convention first (self-consistent).
That single rule is the entire 3/4-versus-1/2 dispute.  :class:`Mode` and
:class:`Comparison` also take their string values (``"strict-paper"``);
only :class:`RoundConfig` checks them.  :func:`control_detected` and :func:`decode_message` are the
one detection rule and the one decoder of every engine.

:func:`run_round` simulates one round and records every state;
:func:`round_trees` lists every way a round can go in the same floats, and
:func:`run_session` resolves each of its rounds by lookups in those trees,
taking the draws a loop of :func:`run_round` on one stream takes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Optional

from .attacks import EveRecord, EveStrategy, Route, apply_eve, tap_branches
from .qcore import (
    BellLabel,
    Convention,
    PauliCode,
    RandomSource,
    TwoQubitState,
    apply_pauli_t,
    bell_cumulative,
    bell_state,
    label_map,
    measure_bell,
)

class Mode(str, Enum):
    MESSAGE = "message"
    CONTROL = "control"


class Comparison(str, Enum):
    """How a control-round outcome is scored against the expected label."""

    STRICT_PAPER = "strict-paper"
    CONVERTED = "converted"


@dataclass(frozen=True)
class RoundConfig:
    """One round's inputs; ``mode`` and ``comparison`` are stored as members."""

    bob_bits: tuple[int, int]
    alice_bits: tuple[int, int]
    mode: Mode = Mode.MESSAGE
    outcome_convention: Convention = Convention.OPERATOR_ENCODING
    expectation_convention: Convention = Convention.OPERATOR_ENCODING
    comparison: Comparison = Comparison.CONVERTED

    def __post_init__(self) -> None:
        for bit in (*self.bob_bits, *self.alice_bits):
            if bit not in (0, 1):
                raise ValueError("encoding bits must be 0/1")
        # an unknown value raises ValueError
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "comparison", Comparison(self.comparison))


@dataclass
class RoundTranscript:
    config: RoundConfig
    after_prepare: TwoQubitState
    after_bob_encode: TwoQubitState
    after_eve_b2a: TwoQubitState
    after_alice_encode: TwoQubitState
    after_eve_a2b: TwoQubitState
    eve_record: EveRecord
    bell_outcome: BellLabel
    bell_probability: float
    decoded_alice_bits: Optional[tuple[int, int]] = None
    decoded_bob_bits: Optional[tuple[int, int]] = None
    detected: Optional[bool] = None

    def snapshots(self) -> tuple[TwoQubitState, ...]:
        return (
            self.after_prepare,
            self.after_bob_encode,
            self.after_eve_b2a,
            self.after_alice_encode,
            self.after_eve_a2b,
        )


@lru_cache(maxsize=None)
def expected_outcome(
    i: int, j: int, k: int, l: int, convention: Convention
) -> BellLabel:
    """Bell label Bob predicts for an undisturbed round.

    Under OPERATOR_ENCODING the composition law gives (i xor k, j xor l);
    under PARITY_PHASE the same physical state carries the mapped label.
    """
    oe = BellLabel(i ^ k, j ^ l, Convention.OPERATOR_ENCODING)
    if convention is Convention.OPERATOR_ENCODING:
        return oe
    return label_map(oe)


def control_detected(config: RoundConfig, outcome: BellLabel) -> bool:
    """Whether a control-round outcome flags Eve: scored under the
    configured comparison rule, it differs from the label Bob expects."""
    k, l = config.bob_bits
    i, j = config.alice_bits
    expected = expected_outcome(i, j, k, l, config.expectation_convention)
    if (
        config.comparison is Comparison.CONVERTED
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
    if outcome.convention is Convention.PARITY_PHASE:
        outcome = label_map(outcome)
    k, l = config.bob_bits
    i, j = config.alice_bits
    return (outcome.k ^ k, outcome.l ^ l), (outcome.k ^ i, outcome.l ^ j)


def run_round(
    config: RoundConfig, eve: EveStrategy, rand: RandomSource
) -> RoundTranscript:
    """Execute one full round and return its transcript."""
    k, l = config.bob_bits
    i, j = config.alice_bits

    s0 = bell_state(Convention.OPERATOR_ENCODING, 0, 0)
    s1 = apply_pauli_t(s0, PauliCode(k, l))
    s2, rec_b2a = apply_eve(eve, Route.B_TO_A, s1, rand)
    s3 = apply_pauli_t(s2, PauliCode(i, j))
    s4, rec_a2b = apply_eve(eve, Route.A_TO_B, s3, rand)
    eve_record = rec_b2a if rec_b2a is not None else rec_a2b

    outcome, prob = measure_bell(s4, config.outcome_convention, rand)

    decoded_alice = decoded_bob = None
    detected = None
    if config.mode is Mode.MESSAGE:
        decoded_alice, decoded_bob = decode_message(config, outcome)
    else:
        detected = control_detected(config, outcome)

    return RoundTranscript(
        config=config,
        after_prepare=s0,
        after_bob_encode=s1,
        after_eve_b2a=s2,
        after_alice_encode=s3,
        after_eve_a2b=s4,
        eve_record=eve_record,
        bell_outcome=outcome,
        bell_probability=prob,
        decoded_alice_bits=decoded_alice,
        decoded_bob_bits=decoded_bob,
        detected=detected,
    )


def round_trees(
    eve: EveStrategy, convention: Convention
) -> list[tuple[tuple[float, ...], list[tuple[list[float], list[BellLabel]]]]]:
    """Every way a round can go, in the round simulator's floats: the one
    leg walk of the float engines.  One entry per bit tuple (k, l, i, j),
    at index 8k + 4l + 2i + j, the order the bits are drawn in.

    Each leg as in :func:`run_round`: Bob encodes (k, l) and Eve's
    :func:`attacks.tap_branches` acts on the outbound leg, then Alice
    encodes (i, j) and Eve acts on the return leg.  An entry holds Eve's
    tap thresholds and, per tap branch, the Bell thresholds and labels
    under ``convention``.  With tap draw u and Bell draw w,
    :func:`run_round` measures ``labels[branch_index(bell_thresholds, w)]``
    on branch ``branch_index(tap_thresholds, u)``, drawing u only when there
    are tap thresholds.  The Bell thresholds are the cumulative weights of
    the nonzero labels but the last, so a draw that rounding leaves above
    every cumulative weight falls on the last label, as in
    :func:`measure_bell`.
    """
    prepared = bell_state(Convention.OPERATOR_ENCODING, 0, 0)
    codes = [PauliCode(a, b) for a, b in product((0, 1), repeat=2)]
    trees = []
    for bob_code in codes:
        outbound, forwarded = tap_branches(
            eve, Route.B_TO_A, apply_pauli_t(prepared, bob_code)
        )
        for alice_code in codes:
            taps = [tap_branches(eve, Route.A_TO_B, apply_pauli_t(s, alice_code))
                    for s in forwarded]
            # a strategy taps one leg, so at most one of the two taps draws
            thresholds = outbound + taps[0][0]
            branches = []
            for _thresholds, finals in taps:
                for state in finals:
                    entries = list(bell_cumulative(state, convention))
                    branches.append(([acc for acc, _label, _w in entries[:-1]],
                                     [label for _acc, label, _w in entries]))
            trees.append((thresholds, branches))
    return trees


@dataclass
class SessionStats:
    n_rounds: int
    control_rounds: int = 0
    message_rounds: int = 0
    detections: int = 0
    alice_pair_errors: int = 0
    bob_pair_errors: int = 0
    alice_bit_errors: list[int] = field(default_factory=lambda: [0, 0])
    bob_bit_errors: list[int] = field(default_factory=lambda: [0, 0])
    detection_rate: float = 0.0
    survival_probability: float = 1.0
    bit_seed: int = 0
    generator_id: str = RandomSource.GENERATOR_ID


def run_session(
    n_rounds: int,
    control_fraction: float,
    bit_source: RandomSource,
    eve: EveStrategy,
    conventions: tuple[Convention, Convention] = (
        Convention.OPERATOR_ENCODING,
        Convention.OPERATOR_ENCODING,
    ),
    comparison: Comparison = Comparison.CONVERTED,
) -> SessionStats:
    """Run a session of rounds with uniform random bits and random mode draws.

    Every draw comes from the one sequential stream ``bit_source``, round
    after round.  A round takes the bits k, l, i, j, each 1 when its draw is
    below 1/2; then, only when ``0 < control_fraction < 1``, the mode draw,
    control when it is below ``control_fraction`` (fraction 0 is always
    message, 1 always control); then Eve's tap draw when her strategy draws;
    then the Bell draw.  The last two are taken as :func:`run_round`
    consumes them, so the session is a loop of :func:`run_round` on
    ``bit_source``, and at fraction 1 it is the stream layout of
    :func:`analysis.monte_carlo`.  Deterministic for a fixed seed.

    The rounds are not simulated one by one: each resolves its draws by
    lookups in the trees of :func:`round_trees`, built once per call, and
    the session counts how often each (bits, tap branch, Bell slot, mode)
    leaf is reached.  The stats fold :func:`control_detected` and
    :func:`decode_message` over those counts, so they are the ones a loop
    of :func:`run_round` calls gives.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if not 0.0 <= control_fraction <= 1.0:
        raise ValueError("control_fraction must be in [0, 1]")

    outcome_conv, expectation_conv = conventions
    # node k l i j (bits read as a binary number, in draw order): the tap
    # thresholds and, per tap branch, the Bell thresholds and the index of
    # the branch's first leaf; the leaves of Bell slot s are at first + 2s
    # (message) and first + 2s + 1 (control)
    nodes, leaves = [], []
    for (k, l, i, j), (taps, branches) in zip(product((0, 1), repeat=4),
                                             round_trees(eve, outcome_conv)):
        configs = [
            RoundConfig((k, l), (i, j), mode, outcome_conv, expectation_conv,
                        comparison)
            for mode in (Mode.MESSAGE, Mode.CONTROL)
        ]
        tap_nodes = []
        for bell_thresholds, labels in branches:
            tap_nodes.append((bell_thresholds, len(leaves)))
            leaves += [(config, label) for label in labels for config in configs]
        nodes.append((taps, tap_nodes))

    counts = [0] * len(leaves)
    draw = bit_source.random
    mixed = 0.0 < control_fraction < 1.0
    control = control_fraction == 1.0
    # the thresholds ascend, so bisect_right counts those at or below a
    # draw, as branch_index does, without a Python-level call
    for _ in range(n_rounds):
        node = ((draw() < 0.5) * 8 + (draw() < 0.5) * 4
                + (draw() < 0.5) * 2 + (draw() < 0.5))
        if mixed:
            control = draw() < control_fraction
        taps, tap_nodes = nodes[node]
        bell_thresholds, first = tap_nodes[bisect_right(taps, draw()) if taps else 0]
        counts[first + 2 * bisect_right(bell_thresholds, draw()) + control] += 1

    stats = SessionStats(n_rounds=n_rounds, bit_seed=bit_source.seed)
    for (config, outcome), count in zip(leaves, counts):
        if not count:
            continue
        if config.mode is Mode.CONTROL:
            stats.control_rounds += count
            stats.detections += count * control_detected(config, outcome)
            continue
        stats.message_rounds += count
        (k, l), (i, j) = config.bob_bits, config.alice_bits
        da, db = decode_message(config, outcome)
        stats.alice_pair_errors += count * (da != (i, j))
        stats.bob_pair_errors += count * (db != (k, l))
        stats.alice_bit_errors[0] += count * (da[0] != i)
        stats.alice_bit_errors[1] += count * (da[1] != j)
        stats.bob_bit_errors[0] += count * (db[0] != k)
        stats.bob_bit_errors[1] += count * (db[1] != l)

    if stats.control_rounds:
        stats.detection_rate = stats.detections / stats.control_rounds
        stats.survival_probability = (1.0 - stats.detection_rate) ** stats.control_rounds
    return stats
