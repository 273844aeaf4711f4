"""The seeded samplers over the exact walk's tree: :func:`run_session` and
its control-only view :func:`monte_carlo`.

The one sampler loop, :func:`run_session`, reads the walk's leaves and the
tally table of :mod:`qdialogue.exactstate`.  It takes its draws from one
stream in the order a loop of :func:`qdialogue.protocol.run_round` takes
them, one Mersenne Twister word a draw
(:class:`~qdialogue.model.RandomSource`): every cumulative mass of the walk
is a multiple of 1/4 of its total, so the top byte of each draw's word
decides it.  A round's key, from those bytes, picks the leaf it reaches in
one table per walk, :func:`_round_leaves`, which every bookkeeping of the
walk shares; a bookkeeping enters only through the leaves' tally bytes.
Whole chunks of rounds resolve by ``bytes`` table lookups in C to those
bytes.  The session counts each tally the rounds' mode can set by the
popcount of its bit across the chunk, Alice's errors only, since Bob's
equal hers in every tally table.  A sampler process loads this module, the
walk and :mod:`qdialogue.model`, and neither the float round simulator nor
the exact reports, nor :mod:`fractions`.  The engines take each convention and
comparison as a member or its string value, made members by
:func:`~qdialogue.model.bookkeeping`, one cache entry for both; round
counts are integers, and a bool count, a control fraction that is a bool
(numpy's included) or no real number, or a session's conventions that are
no pair raise ``TypeError``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import accumulate, groupby

from .exactstate import _CONTROL_TALLIES, _KEEP, _MESSAGE_TALLIES, _outcome_tallies, _walk
from .model import (
    Comparison,
    Convention,
    EveStrategy,
    FrozenValue,
    InvariantError,
    RandomSource,
    Value,
    _integer,
    bookkeeping,
)

#: rounds whose draws the samplers take and resolve at once; their memory
#: grows with this, not with the number of rounds
MC_CHUNK_ROUNDS = 2048


class McEstimate(FrozenValue):
    __slots__ = ("mean", "standard_error", "n", "seed", "generator_id")


class SessionStats(Value):
    """Counts of a session, each party's bit errors a list of two, with its
    detection rate, Eve's chance to survive every control round, and its bit
    source's seed and generator.  The constructor, derived by
    :class:`~qdialogue.model.Value`, takes all twelve fields, in order."""

    __slots__ = ("n_rounds", "control_rounds", "message_rounds", "detections",
                 "alice_pair_errors", "bob_pair_errors", "alice_bit_errors",
                 "bob_bit_errors", "detection_rate", "survival_probability",
                 "bit_seed", "generator_id")


#: per bit draw k, l, i, j, and for the tap and Bell draws, the bits of a
#: round's key that the top byte of the draw's word gives (see
#: :func:`_tallies`): a bit set below 128, a quarter per 64 values.  The
#: bits i, j, k, l go to key bits 7, 6, 5, 4, so that ``key >> 4`` is the bit
#: tuple's place in ``ALL_BIT_TUPLES``, 8i + 4j + 2k + l
_BIT_KEYS = tuple(bytes((1 << shift,)) * 128 + bytes(128) for shift in (5, 4, 7, 6))
_TAP_KEY = b"".join(bytes((quarter << 2,)) * 64 for quarter in range(4))
_BELL_KEY = b"".join(bytes((quarter,)) * 64 for quarter in range(4))

def _quarter_picks(masses: Iterable[int]) -> tuple[int, ...]:
    """The branch a uniform draw picks in each quarter of [0, 1), for
    branches of these integer masses: the number of cumulative masses, as
    quarters of the total, at or below the draw's quarter.  Raises
    InvariantError unless every cumulative mass is a multiple of 1/4 of the
    total."""
    cumulative = tuple(accumulate(masses))
    total = cumulative[-1]
    if any(4 * c % total for c in cumulative):
        raise InvariantError(f"draw threshold not a multiple of 1/4 in {cumulative}")
    quarters = [4 * c // total for c in cumulative]
    return tuple(bisect_right(quarters, q) for q in range(4))


@lru_cache(maxsize=None)
def _round_leaves(eve: EveStrategy, outcome_conv: Convention) -> tuple[bool, bytes, bytes]:
    """Which leaf of :func:`_walk` each round key reaches, once per walk.

    Returns whether a round draws Eve's tap; per round key, the index in the
    walk's leaves of the leaf it reaches; and per key, that leaf's
    ``place << 2 | outcome``, the index of its tallies in every table of
    :func:`_outcome_tallies`.  The key's node is the bit tuple's place,
    which groups the leaves, then their Eve branch index; its tap quarter
    picks a branch by the cumulative branch masses, and its Bell quarter a
    leaf by the branch's cumulative leaf masses (:func:`_quarter_picks`).
    """
    _top, leaves = _walk(eve, outcome_conv)
    draws_tap = any(b for _place, b, *_ in leaves)
    table = bytearray()
    for _place, node in groupby(range(len(leaves)), lambda n: leaves[n][0]):
        # per Eve branch, the indices of its leaves
        branches = [list(branch) for _b, branch in groupby(node, lambda n: leaves[n][1])]
        if (len(branches) > 1) != draws_tap:
            raise InvariantError("Eve's tap draws on some bit tuples only")
        for b in _quarter_picks(sum(leaves[n][5] for n in branch) for branch in branches):
            branch = branches[b]
            table += bytes(branch[x] for x in _quarter_picks(leaves[n][5] for n in branch))
    return draws_tap, bytes(table), bytes(leaves[n][0] << 2 | leaves[n][4] for n in table)


def _tallies(eve: EveStrategy, conventions: tuple[Convention, Convention],
             comparison: Comparison, n: int, control_fraction: float,
             source: RandomSource) -> Iterator[tuple[int, int]]:
    """The tallies of n rounds drawn from ``source``, ``MC_CHUNK_ROUNDS``
    rounds a chunk, in the layout of :func:`run_session`: per chunk, its
    rounds and one int whose little-endian bytes are the rounds' tally
    bytes, so that tally t of the chunk counts as the bits set in
    ``tallies >> t`` at bit 0 of a byte.  The conventions and the comparison
    may each be a member or its string value (:func:`bookkeeping`).

    A draw is one Mersenne Twister word a, as ``a / 2**32``
    (:meth:`RandomSource.random`), so it is below a threshold m / 4 exactly
    when ``a >> 30 < m``.  Every threshold of the walk is a multiple of 1/4,
    as :func:`_round_leaves` checks on its integers, so the top byte of
    each draw's word decides the draw: a bit is 1 when that byte is below
    128, and the tap and Bell draws go by their quarter of [0, 1).
    ``getrandbits`` returns the words first word least significant, so the
    top byte of a round's draw p is byte 4p + 3 of the round's little-endian
    bytes, 4 a draw, read for the whole chunk as one stepped slice.  Per
    draw position a table maps that byte to its bits of the round's key:
    the node 8i + 4j + 2k + l, the bit tuple's place in ``ALL_BIT_TUPLES``,
    in bits 4-7, the tap quarter in bits 2-3 and the Bell quarter in bits
    0-1.  One table, made per call from the key's leaf (:func:`_round_leaves`)
    and the leaf's tallies (:func:`_outcome_tallies`), maps the key to the
    round's tallies, and the round's mode masks them: at fraction 0 or 1 the
    table is masked once, and a mixed session masks each chunk.  A mode draw at a mixed fraction f is control when its top
    byte is below 256 f and message when above it; on the byte 256 f rounds
    down to, unless f is a multiple of 1/256, the whole word settles it, as
    ``a / 2**32 < f``, the comparison :func:`run_round`'s loop makes.  All
    of a chunk's work but that settling runs in C.
    """
    outcome_conv, *rules = bookkeeping(*conventions, comparison)
    draws_tap, _leaf, tally_index = _round_leaves(eve, outcome_conv)
    table = tally_index.translate(_outcome_tallies(outcome_conv, *rules))
    mixed = 0.0 < control_fraction < 1.0
    draws = 5 + mixed + draws_tap
    stride = 4 * draws
    keyed = tuple((4 * position + 3, key_bits) for position, key_bits in zip(
        (0, 1, 2, 3, *range(4 + mixed, draws)),
        (*_BIT_KEYS, *(_TAP_KEY,) * draws_tap, _BELL_KEY)))
    if mixed:
        below = int(256 * control_fraction)
        # the top byte 256 f rounds down to: 0, for the draws left to settle,
        # unless all of its draws are at or above f
        straddling = 0 if 256 * control_fraction != below else _MESSAGE_TALLIES
        mode_masks = (bytes((_CONTROL_TALLIES,)) * below + bytes((straddling,))
                      + bytes((_MESSAGE_TALLIES,)) * (255 - below))
    else:
        table = table.translate(_KEEP[_CONTROL_TALLIES if control_fraction
                                      else _MESSAGE_TALLIES])
    getrandbits = source._rng.getrandbits
    chunk = MC_CHUNK_ROUNDS
    for start in range(0, n, chunk):
        rounds = min(chunk, n - start)
        raw = getrandbits(32 * draws * rounds).to_bytes(stride * rounds, "little")
        key = 0
        for top, key_bits in keyed:
            key |= int.from_bytes(raw[top::stride].translate(key_bits), "little")
        tallies = int.from_bytes(key.to_bytes(rounds, "little").translate(table), "little")
        if mixed:
            # the mode draw is the fifth: its top byte is byte 19 of a round
            masks = bytearray(raw[19::stride].translate(mode_masks))
            # each open mode draw, whole, as random() gives it
            r = masks.find(0)
            while r >= 0:
                w = r * stride + 16
                u = int.from_bytes(raw[w:w + 4], "little") * 2.0**-32
                masks[r] = _CONTROL_TALLIES if u < control_fraction else _MESSAGE_TALLIES
                r = masks.find(0, r + 1)
            tallies &= int.from_bytes(masks, "little")
        yield rounds, tallies


def _round_count(n, name: str) -> int:
    """A sampler's round count as an int, through ``operator.index``: a
    float or a bool raises ``TypeError``, and a count below 1
    ``ValueError``."""
    n = _integer(n, name)
    if n < 1:
        raise ValueError(f"{name} must be >= 1")
    return n


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
    is the one the round-by-round loop gives.  A draw is one 32-bit
    Mersenne Twister word (:meth:`RandomSource.random`), so a round takes 5
    or 6 words.  Its mean is the detection rate of a control-only
    :func:`run_session` on ``RandomSource(seed)``, which resolves the rounds
    ``MC_CHUNK_ROUNDS`` at a time from the top bytes of their draws' words,
    so memory is bounded by the chunk, whatever n is.  Each convention and
    the comparison may be a member or its string value.  ``n`` is an
    integer (:func:`_round_count`).
    """
    n = _round_count(n, "n")
    mean = run_session(n, 1.0, RandomSource(seed), attack,
                       (outcome_convention, expectation_convention), comparison).detection_rate
    return McEstimate(
        mean=mean,
        standard_error=math.sqrt(mean * (1.0 - mean) / n),
        n=n,
        seed=seed,
        generator_id=RandomSource.GENERATOR_ID,
    )


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
    after round, one 32-bit Mersenne Twister word a draw
    (:meth:`RandomSource.random`).  A round takes the bits k, l, i, j, each
    1 when its draw is below 1/2; then, only when ``0 < control_fraction < 1``, the mode draw,
    control when it is below ``control_fraction`` (fraction 0 is always
    message, 1 always control); then Eve's tap draw when her strategy draws;
    then the Bell draw.  The last two are taken as :func:`run_round`
    consumes them, so the session is a loop of :func:`run_round` on
    ``bit_source``, and at fraction 1 it is the stream layout of
    :func:`monte_carlo`.  Deterministic for a fixed seed.

    The rounds are not simulated one by one: :func:`_tallies` resolves them
    in chunks from the top bytes of their draws' words, each to the tallies
    of the leaf it reaches, which hold what :func:`control_detected` and
    :func:`decode_message` give for it, and the session counts each tally.
    In every tally table Bob's errors are Alice's (both decodes are wrong
    exactly where the outcome differs from (i xor k, j xor l)), so it counts
    Alice's and fills Bob's fields from them.  The stats are the ones a loop
    of :func:`run_round` calls gives.  The draws are taken straight from the
    Mersenne Twister of ``bit_source``, not through
    :meth:`RandomSource.random`, which returns the same values.
    ``conventions`` is a pair, a tuple or a list, and each convention and
    the comparison may be a member or its string value.  ``n_rounds`` is an
    integer (:func:`_round_count`); a ``control_fraction`` that is a bool,
    numpy's included, or no real number, a ``bit_source`` that is not a
    :class:`RandomSource`, or ``conventions`` that are no pair raise
    ``TypeError`` before any draw.
    """
    n_rounds = _round_count(n_rounds, "n_rounds")
    if not isinstance(bit_source, RandomSource):
        raise TypeError(f"bit_source must be a RandomSource, not {type(bit_source).__name__}")
    if not isinstance(conventions, (tuple, list)) or len(conventions) != 2:
        raise TypeError(f"conventions must be a pair of conventions, not {conventions!r}")
    # a real number converts to float; str, complex and None do not.  A bool
    # does, but is no fraction, numpy's included: its type is named bool too
    # (bool_ before numpy 2), and the samplers do not load numpy
    if (type(control_fraction).__name__ in ("bool", "bool_")
            or not hasattr(type(control_fraction), "__float__")):
        raise TypeError(
            f"control_fraction must be a real number, not {type(control_fraction).__name__}")
    if not 0.0 <= control_fraction <= 1.0:
        raise ValueError("control_fraction must be in [0, 1]")

    # only the tallies the mode can set: detections at fraction 1, errors at
    # 0; of the errors only Alice's, bits 2, 4 and 5, which Bob's bits 3, 6
    # and 7 equal, so totals[3] stays 0
    every_control = control_fraction == 1.0
    totals = [n_rounds if every_control else 0] + [0] * 5
    counted = (1,) if every_control else (0, 1, 2, 4, 5) if control_fraction else (2, 4, 5)
    for rounds, tallies in _tallies(eve, conventions, comparison, n_rounds,
                                    control_fraction, bit_source):
        # bit 0 of each of the chunk's tally bytes
        lanes = int.from_bytes(b"\1" * rounds, "little")
        for t in counted:
            totals[t] += (tallies >> t & lanes).bit_count()
    control_rounds, detections, pair_errors = totals[:3]
    rate = detections / control_rounds if control_rounds else 0.0
    return SessionStats(
        n_rounds=n_rounds,
        control_rounds=control_rounds,
        message_rounds=n_rounds - control_rounds,
        detections=detections,
        alice_pair_errors=pair_errors,
        bob_pair_errors=pair_errors,
        alice_bit_errors=totals[4:],
        bob_bit_errors=totals[4:],
        detection_rate=rate,
        survival_probability=(1.0 - rate) ** control_rounds,
        bit_seed=bit_source.seed,
        generator_id=RandomSource.GENERATOR_ID,
    )
