"""Round choreography of the two-way dialogue protocol, simulated in floats.

One round: Bob prepares the (0,0) Bell pair, encodes his bits on the travel
qubit, sends it to Alice (Eve may tap), Alice encodes her bits, the qubit
returns (Eve may tap again), and Bob performs a Bell measurement.

Message rounds decode both parties' bits from the announced outcome label;
control rounds compare the outcome against the label expected in Eve's
absence.  Eve cannot tell the two modes apart: the quantum evolution is
identical, only post-measurement bookkeeping differs.

:func:`run_round` simulates one round in floats and records every state.
The rules it applies, :class:`RoundConfig`, :func:`control_detected` and
:func:`decode_message`, are the one set of every engine and live in
:mod:`qdialogue.model`, with :func:`~qdialogue.model.bookkeeping`, the one
place where conventions and comparisons given as string values become
members.  The engines over the round's whole tree are the exact walk in
:mod:`qdialogue.exactstate`, the samplers in :mod:`qdialogue.sampling` and
the reports in :mod:`qdialogue.analysis`; none of them loads this module.
"""

from __future__ import annotations

from . import model
from .attacks import EveRecord, EveStrategy, apply_eve
# Mode and RoundConfig are also imported from here by tests/test_acceptance.py,
# and bench/tracer.py counts RoundConfig at this lookup site
from .model import (
    _MESSAGE,
    _OE,
    BellLabel,
    Mode,
    PauliCode,
    RandomSource,
    RoundConfig,
    Route,
    Value,
    control_detected,
    decode_message,
)
from .qcore import TwoQubitState, apply_pauli_t, bell_state, measure_bell

_B_TO_A, _A_TO_B = Route.B_TO_A, Route.A_TO_B


class RoundTranscript(Value):
    #: the names of the round's five states, in the order it makes them
    STATES = ("after_prepare", "after_bob_encode", "after_eve_b2a", "after_alice_encode",
              "after_eve_a2b")
    __slots__ = ("config", *STATES, "eve_record", "bell_outcome", "bell_probability",
                 "decoded_alice_bits", "decoded_bob_bits", "detected")

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
        """The round's five states, in the order of ``STATES``."""
        return tuple(getattr(self, name) for name in self.STATES)


def run_round(
    config: RoundConfig, eve: EveStrategy, rand: RandomSource
) -> RoundTranscript:
    """Execute one full round and return its transcript.  ``config`` is a
    :class:`RoundConfig` and ``rand`` anything with a ``random()`` method;
    anything else raises ``TypeError``."""
    # the class from its home: bench/tracer.py wraps this module's name
    if not isinstance(config, model.RoundConfig):
        raise TypeError(f"config must be a RoundConfig, not {type(config).__name__}")
    if not callable(getattr(rand, "random", None)):
        raise TypeError(f"rand must be a random source, not {type(rand).__name__}")
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
