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
That single rule is the entire 3/4-versus-1/2 dispute.  :class:`Mode`,
:class:`Comparison` and :class:`~qdialogue.qcore.Convention` also take their
string values (``"strict-paper"``).  The bookkeeping of a round, its two
conventions and its comparison, becomes members in one place,
:func:`bookkeeping`, which :class:`RoundConfig` and every engine call, so an
unknown value raises ValueError wherever it enters.
:func:`control_detected` and :func:`decode_message` are the one detection
rule and the one decoder of every engine.

:func:`run_round` simulates one round in floats and records every state;
the engines over the round's whole tree live in :mod:`qdialogue.analysis`.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .attacks import EveRecord, EveStrategy, Route, apply_eve
from .qcore import (
    BellLabel,
    Convention,
    FrozenValue,
    PauliCode,
    RandomSource,
    TwoQubitState,
    Value,
    apply_pauli_t,
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


#: each convention and each comparison, by member and by value
_CONVENTION = {key: member for member in Convention for key in (member, member.value)}
_COMPARISON = {key: member for member in Comparison for key in (member, member.value)}
#: the members a round reads, bound once: looking a member up on its enum
#: costs more than ten reads of a global
_OE, _PP = Convention.OPERATOR_ENCODING, Convention.PARITY_PHASE
_CONVERTED, _MESSAGE = Comparison.CONVERTED, Mode.MESSAGE
_B_TO_A, _A_TO_B = Route.B_TO_A, Route.A_TO_B


def bookkeeping(outcome_convention, expectation_convention,
                comparison) -> tuple[Convention, Convention, Comparison]:
    """The two conventions and the comparison as members, each given as a
    member or its string value, so that both forms share one cache entry;
    anything else raises the ``ValueError`` of its enum."""
    try:
        return (_CONVENTION[outcome_convention], _CONVENTION[expectation_convention],
                _COMPARISON[comparison])
    except (KeyError, TypeError):
        # raises the ValueError of the first value that names no member
        return (Convention(outcome_convention), Convention(expectation_convention),
                Comparison(comparison))


class RoundConfig(FrozenValue):
    """One round's inputs: each party's two encoding bits as a tuple, and
    each enum field as its member."""

    __slots__ = ("bob_bits", "alice_bits", "mode", "outcome_convention",
                 "expectation_convention", "comparison")

    def __init__(
        self,
        bob_bits: tuple[int, int],
        alice_bits: tuple[int, int],
        mode: Mode = Mode.MESSAGE,
        outcome_convention: Convention = Convention.OPERATOR_ENCODING,
        expectation_convention: Convention = Convention.OPERATOR_ENCODING,
        comparison: Comparison = Comparison.CONVERTED,
    ):
        bob_bits, alice_bits = tuple(bob_bits), tuple(alice_bits)
        if len(bob_bits) != 2 or len(alice_bits) != 2 or any(
                bit not in (0, 1) for bit in (*bob_bits, *alice_bits)):
            raise ValueError("each party's encoding bits must be two 0/1 bits")
        object.__setattr__(self, "bob_bits", bob_bits)
        object.__setattr__(self, "alice_bits", alice_bits)
        # an unknown value raises ValueError
        object.__setattr__(self, "mode", Mode(mode))
        (outcome_convention, expectation_convention,
         comparison) = bookkeeping(outcome_convention, expectation_convention, comparison)
        object.__setattr__(self, "outcome_convention", outcome_convention)
        object.__setattr__(self, "expectation_convention", expectation_convention)
        object.__setattr__(self, "comparison", comparison)


class RoundTranscript(Value):
    __slots__ = ("config", "after_prepare", "after_bob_encode", "after_eve_b2a",
                 "after_alice_encode", "after_eve_a2b", "eve_record",
                 "bell_outcome", "bell_probability", "decoded_alice_bits",
                 "decoded_bob_bits", "detected")

    def __init__(
        self,
        config: RoundConfig,
        after_prepare: TwoQubitState,
        after_bob_encode: TwoQubitState,
        after_eve_b2a: TwoQubitState,
        after_alice_encode: TwoQubitState,
        after_eve_a2b: TwoQubitState,
        eve_record: EveRecord,
        bell_outcome: BellLabel,
        bell_probability: float,
        decoded_alice_bits: tuple[int, int] | None = None,
        decoded_bob_bits: tuple[int, int] | None = None,
        detected: bool | None = None,
    ):
        self.config = config
        self.after_prepare = after_prepare
        self.after_bob_encode = after_bob_encode
        self.after_eve_b2a = after_eve_b2a
        self.after_alice_encode = after_alice_encode
        self.after_eve_a2b = after_eve_a2b
        self.eve_record = eve_record
        self.bell_outcome = bell_outcome
        self.bell_probability = bell_probability
        self.decoded_alice_bits = decoded_alice_bits
        self.decoded_bob_bits = decoded_bob_bits
        self.detected = detected

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
    oe = BellLabel(i ^ k, j ^ l, _OE)
    if convention is _OE:
        return oe
    return label_map(oe)


def control_detected(config: RoundConfig, outcome: BellLabel) -> bool:
    """Whether a control-round outcome flags Eve: scored under the
    configured comparison rule, it differs from the label Bob expects."""
    k, l = config.bob_bits
    i, j = config.alice_bits
    expected = expected_outcome(i, j, k, l, config.expectation_convention)
    if (
        config.comparison is _CONVERTED
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
    if outcome.convention is _PP:
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

    s0 = bell_state(_OE, 0, 0)
    s1 = apply_pauli_t(s0, PauliCode(k, l))
    s2, rec_b2a = apply_eve(eve, _B_TO_A, s1, rand)
    s3 = apply_pauli_t(s2, PauliCode(i, j))
    s4, rec_a2b = apply_eve(eve, _A_TO_B, s3, rand)
    eve_record = rec_b2a if rec_b2a is not None else rec_a2b

    outcome, prob = measure_bell(s4, config.outcome_convention, rand)

    decoded_alice = decoded_bob = None
    detected = None
    if config.mode is _MESSAGE:
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
