"""Round choreography of the two-way dialogue protocol, simulated in floats.

One round: Bob prepares the (0,0) Bell pair, encodes his bits on the travel
qubit, sends it to Alice (Eve may tap), Alice encodes her bits, the qubit
returns (Eve may tap again), and Bob performs a Bell measurement.

Message rounds decode both parties' bits from the announced outcome label;
control rounds compare the outcome against the label expected in Eve's
absence.  Eve cannot tell the two modes apart: the quantum evolution is
identical, only post-measurement bookkeeping differs.

:func:`run_round` simulates one round in floats and records every state,
from one 32-bit word of its random source: the word's top byte is the
round key of the samplers in :mod:`qdialogue.sampling`, and given the same
word the round reaches the leaf that their key names.  Its bookkeeping,
:class:`RoundConfig`, is made members in one place,
:func:`~qdialogue.model.bookkeeping`, and it applies no rule of its own:
it reads its round's tally byte from
:func:`qdialogue.exactstate._outcome_tallies`, the one table of what
:func:`~qdialogue.model.control_detected` and
:func:`~qdialogue.model.message_error` give, which the exact reports in
:mod:`qdialogue.analysis` and the samplers in :mod:`qdialogue.sampling`
read too.  None of those engines loads this module.
"""

from __future__ import annotations

from . import model
from .attacks import EveStrategy, apply_eve
from .exactstate import _PLACE, _outcome_tallies
# Mode and RoundConfig are also imported from here by tests/test_acceptance.py,
# and bench/tracer.py counts RoundConfig at this lookup site
from .model import (
    _MESSAGE,
    _OE,
    MEASURE,
    InvariantError,
    Mode,
    PauliCode,
    RandomSource,
    RoundConfig,
    Route,
    Value,
    _draw_total,
)
from .qcore import TwoQubitState, apply_pauli_t, bell_state, measure_bell

_B_TO_A, _A_TO_B = Route.B_TO_A, Route.A_TO_B
#: the (0,0) Bell pair Bob prepares each round, built once
_PREPARED = bell_state(_OE, 0, 0)
#: the largest selection total that a round's 26 tap bits settle exactly
_TAP_GRAIN = 1 << 26


class _Draw:
    """A source of one draw, derived from a round's word, for a float
    primitive that takes its draw from ``random()``."""

    __slots__ = ("u",)

    def __init__(self, u: float):
        self.u = u

    def random(self) -> float:
        return self.u


class RoundTranscript(Value):
    #: the names of the round's five states, in the order it makes them
    STATES = ("after_prepare", "after_bob_encode", "after_eve_b2a", "after_alice_encode",
              "after_eve_a2b")
    __slots__ = ("config", *STATES, "eve_record", "bell_outcome", "bell_probability",
                 "decoded_alice_bits", "decoded_bob_bits", "detected")

    def snapshots(self) -> tuple[TwoQubitState, ...]:
        """The round's five states, in the order of ``STATES``."""
        return tuple(getattr(self, name) for name in self.STATES)


def run_round(
    config: RoundConfig, eve: EveStrategy, rand: RandomSource
) -> RoundTranscript:
    """Execute one full round and return its transcript.  ``config`` is a
    :class:`RoundConfig` and ``rand`` anything with a ``random()`` method;
    anything else raises ``TypeError``, as an ``eve`` that is no strategy
    does.

    The round takes exactly one draw u from ``rand``, a word w as
    ``w / 2**32`` (:meth:`RandomSource.random`), and reads it in the
    samplers' layout.  Its bits 31-28, the bit tuple, are ignored: the bits
    come from ``config``.  Eve's tap draw is the middle of the 2**-26 granule
    of bits 27-26 then 23-0, and the Bell draw the middle of the quarter of
    bits 25-24.  So no draw sits within 2**-27 of a threshold of 2**-26 or
    coarser, and the float comparisons pick the leaf of the exact walk;
    a selection whose weights sum above 2**26 raises InvariantError before
    the draw.  ``detected`` (bit 1) and the one error (m, n) (bits 3 and 4)
    are read from the round's tally byte in the bookkeeping's
    :func:`~qdialogue.exactstate._outcome_tallies`: Bob decodes
    (i ^ m, j ^ n) and Alice (k ^ m, l ^ n)."""
    # the class from its home: bench/tracer.py wraps this module's name
    if not isinstance(config, model.RoundConfig):
        raise TypeError(f"config must be a RoundConfig, not {type(config).__name__}")
    if not callable(getattr(rand, "random", None)):
        raise TypeError(f"rand must be a random source, not {type(rand).__name__}")
    if not isinstance(eve, EveStrategy):
        raise TypeError(f"not an Eve strategy: {eve!r}")
    for action in map(eve.tap, Route):
        if action is not None and action is not MEASURE and _draw_total(action) > _TAP_GRAIN:
            raise InvariantError(f"draw weights {action.weights} finer than a round "
                                 f"word's 2**-26")
    k, l = config.bob_bits
    i, j = config.alice_bits

    w = int(rand.random() * 2**32)
    tap = _Draw((((w >> 26 & 3) << 24 | w & 0xFFFFFF) * 2 + 1) / 2**27)
    bell = _Draw(((w >> 24 & 3) * 2 + 1) / 8)
    s0 = _PREPARED
    s1 = apply_pauli_t(s0, PauliCode(k, l))
    s2, rec_b2a = apply_eve(eve, _B_TO_A, s1, tap)
    s3 = apply_pauli_t(s2, PauliCode(i, j))
    s4, rec_a2b = apply_eve(eve, _A_TO_B, s3, tap)
    eve_record = rec_b2a if rec_b2a is not None else rec_a2b

    outcome, prob = measure_bell(s4, config.outcome_convention, bell)

    tallies = _outcome_tallies(config.outcome_convention, config.expectation_convention,
                               config.comparison)
    tally = tallies[_PLACE[i, j, k, l] << 2 | outcome.k << 1 | outcome.l]
    decoded_alice = decoded_bob = None
    detected = None
    if config.mode is _MESSAGE:
        m, n = tally >> 3 & 1, tally >> 4 & 1
        decoded_alice, decoded_bob = (i ^ m, j ^ n), (k ^ m, l ^ n)
    else:
        detected = bool(tally & 2)

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
