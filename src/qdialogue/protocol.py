"""Round choreography of the two-way dialogue protocol.

One round: Bob prepares the (0,0) Bell pair, encodes his bits on the travel
qubit, sends it to Alice (Eve may tap), Alice encodes her bits, the qubit
returns (Eve may tap again), and Bob performs a Bell measurement.

Message rounds decode both parties' bits from the announced outcome label;
control rounds compare the outcome against the label expected in Eve's
absence.  Eve cannot tell the two modes apart: the quantum evolution is
identical, only post-measurement bookkeeping differs.

The ``comparison`` switch on :class:`RoundConfig` decides how a measured
label is tested against the expected one when the two conventions differ:
``"converted"`` maps the outcome into the expectation convention first
(self-consistent), ``"strict-paper"`` compares the raw index pairs as-is.
That single switch is the entire 3/4-versus-1/2 dispute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .attacks import EveRecord, EveStrategy, Route, apply_eve
from .qcore import (
    BellLabel,
    Convention,
    PauliCode,
    RandomSource,
    TwoQubitState,
    apply_pauli_t,
    bell_state,
    label_map,
    measure_bell,
)

COMPARISON_RULES = ("converted", "strict-paper")


class Mode:
    MESSAGE = "message"
    CONTROL = "control"


@dataclass(frozen=True)
class RoundConfig:
    bob_bits: tuple[int, int]
    alice_bits: tuple[int, int]
    mode: str = Mode.MESSAGE
    outcome_convention: Convention = Convention.OPERATOR_ENCODING
    expectation_convention: Convention = Convention.OPERATOR_ENCODING
    comparison: str = "converted"

    def __post_init__(self) -> None:
        for bit in (*self.bob_bits, *self.alice_bits):
            if bit not in (0, 1):
                raise ValueError("encoding bits must be 0/1")
        if self.mode not in (Mode.MESSAGE, Mode.CONTROL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.comparison not in COMPARISON_RULES:
            raise ValueError(f"unknown comparison rule {self.comparison!r}")


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


def _to_convention(label: BellLabel, convention: Convention) -> BellLabel:
    return label if label.convention is convention else label_map(label)


def control_detected(config: RoundConfig, outcome: BellLabel) -> bool:
    """Whether a control-round outcome flags Eve: scored under the
    configured comparison rule, it differs from the label Bob expects."""
    k, l = config.bob_bits
    i, j = config.alice_bits
    expected = expected_outcome(i, j, k, l, config.expectation_convention)
    scored = outcome
    if (
        config.comparison == "converted"
        and outcome.convention is not config.expectation_convention
    ):
        scored = label_map(outcome)
    return scored.k != expected.k or scored.l != expected.l


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
    if config.mode == Mode.MESSAGE:
        ok, ol = _to_convention(outcome, config.expectation_convention).bits()
        decoded_alice = (ok ^ k, ol ^ l)
        decoded_bob = (ok ^ i, ol ^ j)
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
    round_seed: int = 0
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
    rand: Optional[RandomSource] = None,
    comparison: str = "converted",
) -> SessionStats:
    """Run a session of rounds with uniform random bits and random mode draws.

    Each round r runs on the child stream ``rand.child(r)``, so results do
    not depend on evaluation order.  Deterministic for fixed seeds.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if not 0.0 <= control_fraction <= 1.0:
        raise ValueError("control_fraction must be in [0, 1]")
    if rand is None:
        rand = bit_source.child(-1)

    outcome_conv, expectation_conv = conventions
    stats = SessionStats(
        n_rounds=n_rounds,
        bit_seed=bit_source.seed,
        round_seed=rand.seed,
    )

    for r in range(n_rounds):
        k = int(bit_source.random() < 0.5)
        l = int(bit_source.random() < 0.5)
        i = int(bit_source.random() < 0.5)
        j = int(bit_source.random() < 0.5)
        mode = Mode.CONTROL if bit_source.random() < control_fraction else Mode.MESSAGE
        config = RoundConfig(
            bob_bits=(k, l),
            alice_bits=(i, j),
            mode=mode,
            outcome_convention=outcome_conv,
            expectation_convention=expectation_conv,
            comparison=comparison,
        )
        transcript = run_round(config, eve, rand.child(r))
        if mode == Mode.CONTROL:
            stats.control_rounds += 1
            stats.detections += bool(transcript.detected)
        else:
            stats.message_rounds += 1
            da, db = transcript.decoded_alice_bits, transcript.decoded_bob_bits
            if da != (i, j):
                stats.alice_pair_errors += 1
            if db != (k, l):
                stats.bob_pair_errors += 1
            stats.alice_bit_errors[0] += da[0] != i
            stats.alice_bit_errors[1] += da[1] != j
            stats.bob_bit_errors[0] += db[0] != k
            stats.bob_bit_errors[1] += db[1] != l

    if stats.control_rounds:
        stats.detection_rate = stats.detections / stats.control_rounds
        stats.survival_probability = (1.0 - stats.detection_rate) ** stats.control_rounds
    return stats
