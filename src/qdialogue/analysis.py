"""Exact detection-probability enumeration, the sampler over the same tree,
and the side-by-side report of the disputed averages.

One exact walk yields every leaf of a round's tree: the 16 encoding-bit
tuples, the branches of Eve's tap action, and the four Bell outcomes, each
mass an int over a power of two.  :func:`_walk` makes it once per strategy
and outcome convention, and :func:`_outcome_tallies` the rules once per
conventions and comparison: per bit tuple, one tally byte per Bell outcome
(control, detected, pair and bit errors).  One exact fold,
:func:`_detection_fold`, cached per configuration, sums the detected bit
and the error bits against the masses in ints, so a report only orders
and copies it, with ``itemgetter`` lookups in C; :func:`message_error_rate`
reads the default bookkeeping's fold and :func:`compare_claims` its two
averages.  ``Fraction``s are built only at that fold's end, by the cached
:func:`compare_claims` and by :meth:`ExactState.norm_sq`, each importing
:mod:`fractions` itself, so a process that only samples never loads it.
The engines take each convention and comparison as a member or its string
value, made members by :func:`protocol.bookkeeping`, one cache entry for
both.  The one sampler loop, :func:`run_session`, reads the same walk and
table, and :func:`monte_carlo` is its control-only view.  It takes its
draws from one stream in the order a loop of :func:`protocol.run_round`
takes them: every cumulative mass of the walk is a multiple of 1/4 of its
total, so the top byte of each draw's first Mersenne Twister word decides
it, and whole chunks of rounds resolve by ``bytes`` table lookups in C to
the tally byte of the leaf each round reaches.  The session counts each
tally the rounds' mode can set by the popcount of its bit across the chunk.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import accumulate, chain, groupby, product
from operator import itemgetter, mul

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
    bookkeeping,
    control_detected,
    decode_message,
    run_round,
)
from .qcore import (
    BELL_LABEL_ORDER,
    BellLabel,
    Convention,
    FrozenValue,
    InvariantError,
    PauliCode,
    RandomSource,
    Value,
)

BitTuple = tuple[int, int, int, int]

ALL_BIT_TUPLES: tuple[BitTuple, ...] = tuple(product((0, 1), repeat=4))

#: the bit tuples (i, j, k, l) in the order the samplers draw them: the
#: bits k, l, i, j read as a binary number, 8k + 4l + 2i + j
DRAW_ORDER: tuple[BitTuple, ...] = tuple((i, j, k, l) for k, l, i, j in ALL_BIT_TUPLES)

#: each bit tuple's place in ALL_BIT_TUPLES: (i, j, k, l) is at 8i + 4j + 2k + l
_PLACE = {bits: place for place, bits in enumerate(ALL_BIT_TUPLES)}

#: the code of each (a, b) bit pair
_CODES = {(a, b): PauliCode(a, b) for a, b in product((0, 1), repeat=2)}

#: rounds whose draws the samplers take and resolve at once; their memory
#: grows with this, not with the number of rounds
MC_CHUNK_ROUNDS = 2048


class CaseDescriptor(FrozenValue):
    """One of the four (m, n) cases, per Eve branch.

    m = i xor k, n = j xor l, parity = m xor n; eve_branch is 'a'/'b' for
    the two intercept collapses and 'none' when the attack has no
    measurement branch.
    """

    __slots__ = ("m", "n", "parity", "eve_branch")

    def __init__(self, m: int, n: int, parity: int, eve_branch: str = "none"):
        if parity != m ^ n:
            raise ValueError("parity must equal m xor n")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "eve_branch", eve_branch)

    ROMAN = {(0, 0): "i", (0, 1): "ii", (1, 0): "iii", (1, 1): "iv"}

    def roman(self) -> str:
        return self.ROMAN[(self.m, self.n)]


class DetectionReport(Value):
    """Exact per-case and average detection probabilities.  ``per_case`` and
    ``branch_averages`` each default to a new empty dict, and ``average`` to
    the int 0, which equals ``Fraction(0)`` and loads no :mod:`fractions`."""

    __slots__ = ("attack", "outcome_convention", "expectation_convention",
                 "comparison", "per_case", "branch_averages", "average",
                 "per_selection")

    def __init__(
        self,
        attack: EveStrategy,
        outcome_convention: Convention,
        expectation_convention: Convention,
        comparison: Comparison,
        per_case: dict[CaseDescriptor, Fraction] | None = None,
        branch_averages: dict[str, Fraction] | None = None,
        average: Fraction | int = 0,
        per_selection: dict[tuple[int, int], Fraction] | None = None,
    ):
        self.attack = attack
        self.outcome_convention = outcome_convention
        self.expectation_convention = expectation_convention
        self.comparison = comparison
        self.per_case = {} if per_case is None else per_case
        self.branch_averages = {} if branch_averages is None else branch_averages
        self.average = average
        self.per_selection = per_selection


class McEstimate(FrozenValue):
    __slots__ = ("mean", "standard_error", "n", "seed", "generator_id")

    def __init__(self, mean: float, standard_error: float, n: int, seed: int,
                 generator_id: str):
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "standard_error", standard_error)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "generator_id", generator_id)


class SessionStats(Value):
    """Counts of a session; each bit-error list defaults to a new ``[0, 0]``."""

    __slots__ = ("n_rounds", "control_rounds", "message_rounds", "detections",
                 "alice_pair_errors", "bob_pair_errors", "alice_bit_errors",
                 "bob_bit_errors", "detection_rate", "survival_probability",
                 "bit_seed", "generator_id")

    def __init__(
        self,
        n_rounds: int,
        control_rounds: int = 0,
        message_rounds: int = 0,
        detections: int = 0,
        alice_pair_errors: int = 0,
        bob_pair_errors: int = 0,
        alice_bit_errors: list[int] | None = None,
        bob_bit_errors: list[int] | None = None,
        detection_rate: float = 0.0,
        survival_probability: float = 1.0,
        bit_seed: int = 0,
        generator_id: str = RandomSource.GENERATOR_ID,
    ):
        self.n_rounds = n_rounds
        self.control_rounds = control_rounds
        self.message_rounds = message_rounds
        self.detections = detections
        self.alice_pair_errors = alice_pair_errors
        self.bob_pair_errors = bob_pair_errors
        self.alice_bit_errors = [0, 0] if alice_bit_errors is None else alice_bit_errors
        self.bob_bit_errors = [0, 0] if bob_bit_errors is None else bob_bit_errors
        self.detection_rate = detection_rate
        self.survival_probability = survival_probability
        self.bit_seed = bit_seed
        self.generator_id = generator_id


class MessageErrorReport(FrozenValue):
    """Exact pair- and bit-level decode error probabilities (message mode).

    ``alice_to_bob``: Bob mis-decodes Alice's pair; ``bob_to_alice``: Alice
    mis-decodes Bob's pair.
    """

    __slots__ = ("attack", "alice_to_bob", "bob_to_alice", "per_bit")

    def __init__(self, attack: EveStrategy, alice_to_bob: Fraction,
                 bob_to_alice: Fraction, per_bit: dict[str, Fraction]):
        object.__setattr__(self, "attack", attack)
        object.__setattr__(self, "alice_to_bob", alice_to_bob)
        object.__setattr__(self, "bob_to_alice", bob_to_alice)
        object.__setattr__(self, "per_bit", per_bit)


class ClaimsReport(FrozenValue):
    __slots__ = ("paper_claim", "cai_claim", "strict_paper_average",
                 "consistent_value", "explanation")

    def __init__(self, paper_claim: Fraction, cai_claim: Fraction,
                 strict_paper_average: Fraction, consistent_value: Fraction,
                 explanation: str):
        object.__setattr__(self, "paper_claim", paper_claim)
        object.__setattr__(self, "cai_claim", cai_claim)
        object.__setattr__(self, "strict_paper_average", strict_paper_average)
        object.__setattr__(self, "consistent_value", consistent_value)
        object.__setattr__(self, "explanation", explanation)


def _home_branch(state: ExactState) -> str:
    home0, home1 = (_gabs2(state.z[h]) + _gabs2(state.z[h + 1]) for h in (0, 2))
    if home0 and home1:
        raise InvariantError("home qubit not definite after intercept")
    return "b" if home1 else "a"


def _tap(attack: EveStrategy, route: Route, exp: int, branches: list) -> tuple[int, list]:
    """Expand every branch through one channel tap.  Branch masses are ints
    over 2**exp; a selection's weights, which must sum to a power of two, or a
    measurement's, scaled to the largest exponent, multiply them; returns the
    new exponent and the new branches."""
    action = attack.tap(route)
    if action is None:
        return exp, branches
    if action is MEASURE:
        split = [(mass * w, state.half, collapsed, sel)
                 for mass, state, _branch, sel in branches
                 for w, collapsed, _t in measure_t_branches(state)]
        top = max((half for _, half, _, _ in split), default=0)
        return exp + top, [(mass << top - half, collapsed, _home_branch(collapsed), sel)
                           for mass, half, collapsed, sel in split]
    weights = action.weights
    total = sum(weights)
    if total < 1 or total & (total - 1):
        raise InvariantError(f"non-dyadic draw weights {weights}")
    choices = [(w, _CODES[uv], uv) for w, uv in zip(weights, action.codes)]
    return exp + total.bit_length() - 1, [
        (mass * w, apply_pauli_t_exact(state, code), branch, uv)
        for mass, state, branch, _sel in branches for w, code, uv in choices]


@lru_cache(maxsize=None)
def _walk(attack: EveStrategy, convention: Convention) -> tuple[int, tuple]:
    """The exact walk, once per strategy and outcome convention: every leaf
    of each encoding-bit tuple's round.

    Returns (D, groups): per bit tuple, in ``ALL_BIT_TUPLES`` order, the
    tuple of its leaves, one per Eve branch.  A leaf is (bit tuple, Eve
    branch tag, applied (u, v) or None, masses): its Eve branch's
    probability times the Born weight of each Bell outcome under
    ``convention``, in ``BELL_LABEL_ORDER``, as ints over 2**D.  Everything
    cached is a tuple, so no caller can change what the next one reads.
    The exact primitives are looked up as this module's globals when the
    walk runs; a test that patches one clears this cache first.  Every
    engine walks first, so each raises TypeError here for a non-strategy.
    """
    if not isinstance(attack, EveStrategy):
        raise TypeError(f"not an Eve strategy: {attack!r}")
    start = exact_bell(Convention.OPERATOR_ENCODING, 0, 0)
    walked = []
    for bits in ALL_BIT_TUPLES:
        i, j, k, l = bits
        exp, branches = 0, [(1, start, "none", None)]
        # each leg: the sender encodes, then Eve taps it
        for code, route in ((_CODES[k, l], Route.B_TO_A), (_CODES[i, j], Route.A_TO_B)):
            exp, branches = _tap(attack, route, exp, [
                (m, apply_pauli_t_exact(s, code), br, sel) for m, s, br, sel in branches
            ])
        if sum(m for m, *_ in branches) != 1 << exp:
            raise InvariantError(f"Eve's branches of bit tuple {bits} do not sum to 1")
        for mass, state, branch, sel in branches:
            weights = bell_weights_exact(state, convention)
            if sum(weights) != 2 << state.half:
                raise InvariantError(f"Bell weights of bit tuple {bits} do not sum to 1")
            walked.append((exp + state.half + 1, mass, bits, branch, sel, weights))
    top = max(e for e, *_ in walked)
    leaves = [(bits, branch, sel, tuple(w * (mass << top - e) for w in weights))
              for e, mass, bits, branch, sel, weights in walked]
    return top, tuple(tuple(group) for _bits, group in groupby(leaves, itemgetter(0)))


#: the tallies a round adds to a session, one bit each: control and detected
#: (of a control round), then Alice's and Bob's pair errors and the bit errors
#: of Alice's bits i, j and of Bob's bits k, l (of a message round)
_CONTROL_TALLIES = 0b00000011
_MESSAGE_TALLIES = 0b11111100
#: per tally t, the table that maps a tally byte to its bit t
_TALLY_BITS = tuple((bytes(1 << t) + b"\1" * (1 << t)) * (128 >> t) for t in range(8))
#: per mode's tallies, the table that keeps only those bits of a tally byte
_KEEP = {mask: bytes(b & mask for b in range(256))
         for mask in (_CONTROL_TALLIES, _MESSAGE_TALLIES)}


@lru_cache(maxsize=None)
def _outcome_tallies(outcome_conv: Convention, expectation_conv: Convention,
                     comparison: Comparison) -> dict[BitTuple, bytes]:
    """Per bit tuple (i, j, k, l), the tallies of each Bell outcome of its
    round, in ``BELL_LABEL_ORDER``, one byte each: bit 0 set (a control
    round), bit 1 whether :func:`control_detected` flags it, and bits 2-7
    what :func:`decode_message` gets wrong in a message round: Alice's and
    Bob's pairs, then the bits i, j, k, l.  ``_TALLY_BITS[t]`` reads bit t
    of a row."""
    rows = {}
    for i, j, k, l in ALL_BIT_TUPLES:
        config = RoundConfig((k, l), (i, j), Mode.CONTROL, outcome_conv,
                             expectation_conv, comparison)
        row = bytearray()
        for kl in BELL_LABEL_ORDER:
            label = BellLabel(*kl, outcome_conv)
            alice, bob = decode_message(config, label)
            wrong = (alice != (i, j), bob != (k, l),
                     alice[0] != i, alice[1] != j, bob[0] != k, bob[1] != l)
            row.append(1 | control_detected(config, label) << 1
                       | sum(flag << t for t, flag in enumerate(wrong, 2)))
        rows[i, j, k, l] = bytes(row)
    return rows


@lru_cache(maxsize=None)
def _detection_fold(attack: EveStrategy, outcome_conv: Convention,
                    expectation_conv: Convention, comparison: Comparison) -> tuple:
    """The one exact fold, once per configuration: the tallies of
    :func:`_outcome_tallies` against the masses of :func:`_walk`, in ints
    until the final ``Fraction``s.  Returns, all immutable, (cases, reach,
    branch_averages, average, per_selection, errors): each (m, n, Eve
    branch) case's ``CaseDescriptor`` and detection probability; per bit
    tuple, in ``ALL_BIT_TUPLES`` order, the indices in ``cases`` of the cases
    its leaves reach, in leaf order; the sorted (branch, average) pairs; the
    average; the sorted ((u, v), average) pairs, or None; and the message
    round's error probabilities, of Alice's and Bob's pairs, then of i, j,
    k, l.  Decoding reads neither the expected labels nor the comparison and
    converts ``pp`` outcome labels, so every configuration's errors are
    those of :func:`message_error_rate`."""
    from fractions import Fraction
    exp, groups = _walk(attack, outcome_conv)
    rows = _outcome_tallies(outcome_conv, expectation_conv, comparison)
    # (detected mass, total mass) per case, per Eve branch and per applied (u, v)
    cases, branches, selections = {}, {}, {}
    for (i, j, k, l), group in zip(ALL_BIT_TUPLES, groups):
        detected = rows[i, j, k, l].translate(_TALLY_BITS[1])
        for _bits, branch, sel, masses in group:
            hit, mass = sum(map(mul, masses, detected)), sum(masses)
            det, tot = cases.get((i ^ k, j ^ l, branch), (0, 0))
            cases[i ^ k, j ^ l, branch] = (det + hit, tot + mass)
            det, tot = branches.get(branch, (0, 0))
            branches[branch] = (det + hit, tot + mass)
            if sel is not None:
                det, tot = selections.get(sel, (0, 0))
                selections[sel] = (det + hit, tot + mass)
    index = {case: c for c, case in enumerate(cases)}
    # each bit tuple's mass on each Bell outcome, over Eve's branches, and
    # the outcome's tallies, both in ALL_BIT_TUPLES order
    masses = [sum(column) for group in groups
              for column in zip(*(leaf[3] for leaf in group))]
    tallies = b"".join(rows.values())
    # every bit tuple weighs 1 / 16
    average, *errors = (Fraction(sum(map(mul, masses, tallies.translate(bit))), 16 << exp)
                        for bit in _TALLY_BITS[1:])
    return (
        tuple((CaseDescriptor(m, n, m ^ n, br), Fraction(*sums))
              for (m, n, br), sums in cases.items()),
        tuple(tuple(dict.fromkeys(index[i ^ k, j ^ l, leaf[1]] for leaf in group))
              for (i, j, k, l), group in zip(ALL_BIT_TUPLES, groups)),
        tuple((br, Fraction(*branches[br])) for br in sorted(branches)),
        average,
        tuple((uv, Fraction(*selections[uv])) for uv in sorted(selections)) or None,
        tuple(errors),
    )


def _places(case_order: Iterable[BitTuple]) -> tuple[int, ...]:
    """Each bit tuple of ``case_order``, in its order, as its place in
    ``ALL_BIT_TUPLES``, looked up by one ``itemgetter`` in C; see
    :func:`enumerate_exact` for what is raised when ``case_order`` is not a
    permutation of the 16 bit tuples."""
    bit_tuples = tuple(case_order)
    # checked first: a getter of one key returns a bare place, not a tuple
    if len(bit_tuples) == 16:
        try:
            places = itemgetter(*bit_tuples)(_PLACE)
        except (KeyError, TypeError):
            places = ()
        if len(set(places)) == 16:
            return places
    sorted(bit_tuples)  # TypeError when the elements do not order
    raise ValueError("case_order must be a permutation of all 16 bit tuples")


def enumerate_exact(
    attack: EveStrategy,
    outcome_convention: Convention = Convention.OPERATOR_ENCODING,
    expectation_convention: Convention = Convention.OPERATOR_ENCODING,
    comparison: Comparison = Comparison.CONVERTED,
    case_order: Iterable[BitTuple] | None = None,
) -> DetectionReport:
    """Exhaustive exact control-round analysis of one attack.

    Enumerates all 16 encoding-bit tuples uniformly, every Eve branch with
    its exact probability, and every Bell outcome with its exact Born
    weight, and folds :func:`protocol.control_detected` over them: the
    cached :func:`_detection_fold`, whose entry for the default bookkeeping
    :func:`message_error_rate` shares.  Each convention and the comparison
    may be given as a member or as its string value, which
    :func:`protocol.bookkeeping` turns into the member the report carries;
    anything else raises ``ValueError``.  ``case_order`` only
    orders ``per_case``, by the case each bit tuple first reaches: each bit
    tuple is looked up to its place in ``ALL_BIT_TUPLES``, and
    ``case_order`` is a permutation when it gives 16 distinct places.  When
    it is not, it raises ``TypeError`` if its elements cannot be sorted and
    ``ValueError`` otherwise.  The places then pick, in C, the cases each
    bit tuple reaches.  The report and its dicts are new on every call, so
    changing them changes no cache.
    """
    places = None if case_order is None else _places(case_order)
    outcome_convention, expectation_convention, comparison = bookkeeping(
        outcome_convention, expectation_convention, comparison)
    cases, reach, branch_averages, average, per_selection, _errors = _detection_fold(
        attack, outcome_convention, expectation_convention, comparison)
    if places is not None:
        reach = itemgetter(*places)(reach)
    reached = dict.fromkeys(chain.from_iterable(reach))
    return DetectionReport(attack, outcome_convention, expectation_convention, comparison,
                           dict(map(cases.__getitem__, reached)), dict(branch_averages),
                           average, per_selection and dict(per_selection))


#: the published attack: intercept-measure on the outbound route, built once
#: so that every report of it hashes the same instance
_PAPER_ATTACK = InterceptMeasure(Route.B_TO_A)
#: the default bookkeeping's members and the published one's, bound once:
#: looking a member up on its enum costs more than a warm fold's cache hit
_OE, _CONVERTED = Convention.OPERATOR_ENCODING, Comparison.CONVERTED
_PAPER_BOOKKEEPING = (Convention.PARITY_PHASE, _OE, Comparison.STRICT_PAPER)


def paper_case_table() -> DetectionReport:
    """The published case table: intercept-measure on the outbound route with
    parity-phase outcome labels scored strictly against operator-encoding
    expected labels.  Per-case values 1, 1, 1/2, 1/2 with average 3/4 for
    both branches."""
    return enumerate_exact(_PAPER_ATTACK, *_PAPER_BOOKKEEPING)


#: per bit draw k, l, i, j, and for the tap and Bell draws, the bits of a
#: round's key that the top byte of the draw's first word gives (see
#: :func:`_tallies`): a bit set below 128, a quarter per 64 values
_BIT_KEYS = tuple(bytes((1 << shift,)) * 128 + bytes(128) for shift in (7, 6, 5, 4))
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
def _session_table(eve: EveStrategy, outcome_conv: Convention,
                   expectation_conv: Convention,
                   comparison: Comparison) -> tuple[bool, bytes]:
    """What the samplers resolve rounds with, built once per configuration
    from the integer masses of :func:`_walk` and the rows of
    :func:`_outcome_tallies`.

    Returns whether a round draws Eve's tap, and the tally table: per round
    key, the tallies of the leaf it reaches, as bits: those of its control
    round in ``_CONTROL_TALLIES`` and those of its message round in
    ``_MESSAGE_TALLIES``.  The key's node is the bit tuple's place in
    ``DRAW_ORDER``; its tap quarter picks an Eve branch by the cumulative
    branch masses, and its Bell quarter an outcome by the branch's
    cumulative Bell masses (:func:`_quarter_picks`).
    """
    _top, groups = _walk(eve, outcome_conv)
    rows = _outcome_tallies(outcome_conv, expectation_conv, comparison)
    draws_tap = len(groups[0]) > 1
    table = bytearray()
    for i, j, k, l in DRAW_ORDER:
        # (i, j, k, l) is at 8i + 4j + 2k + l in ALL_BIT_TUPLES
        masses = [leaf[3] for leaf in groups[i << 3 | j << 2 | k << 1 | l]]
        if (len(masses) > 1) != draws_tap:
            raise InvariantError("Eve's tap draws on some bit tuples only")
        row = rows[i, j, k, l]
        for branch in _quarter_picks(map(sum, masses)):
            table += bytes(row[x] for x in _quarter_picks(masses[branch]))
    return draws_tap, bytes(table)


def _tallies(eve: EveStrategy, conventions: tuple[Convention, Convention],
             comparison: Comparison, n: int, control_fraction: float,
             source: RandomSource) -> Iterator[tuple[int, int]]:
    """The tallies of n rounds drawn from ``source``, ``MC_CHUNK_ROUNDS``
    rounds a chunk, in the layout of :func:`run_session`: per chunk, its
    rounds and one int whose little-endian bytes are the rounds' tally
    bytes, so that tally t of the chunk counts as the bits set in
    ``tallies >> t`` at bit 0 of a byte.  The conventions and the comparison
    may each be a member or its string value (:func:`bookkeeping`).

    ``random()`` builds a draw from two Mersenne Twister words a, b as
    ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, so it is below a threshold
    m / 4 exactly when ``a >> 30 < m``.  Every threshold of the walk is a
    multiple of 1/4, as :func:`_session_table` checks on its integers, so
    the top byte of each draw's first word decides the draw: a bit is 1
    when that byte is below 128, and the tap and Bell draws go by their
    quarter of [0, 1).  ``getrandbits`` returns the words first word least
    significant, so that byte is byte 3 of the draw's 8 little-endian
    bytes.  Per draw position a table maps it to its bits of
    the round's key: the node 8k + 4l + 2i + j in bits 4-7, the tap quarter
    in bits 2-3 and the Bell quarter in bits 0-1.  The table of
    :func:`_session_table` maps the key to the round's tallies, and the
    round's mode masks them: at fraction 0 or 1 the table is masked once,
    and a mixed session masks each chunk.  A mode draw at a mixed fraction
    f is control when its top byte is below 256 f and message when above
    it; on the byte 256 f rounds down to, unless f is a multiple of 1/256,
    the whole draw settles it.  All of a chunk's work but that settling runs
    in C.
    """
    draws_tap, table = _session_table(eve, *bookkeeping(*conventions, comparison))
    mixed = 0.0 < control_fraction < 1.0
    draws = 5 + mixed + draws_tap
    keyed = tuple(zip((0, 1, 2, 3, *range(4 + mixed, draws)),
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
        raw = getrandbits(64 * draws * rounds).to_bytes(8 * draws * rounds, "little")
        tops = raw[3::8]
        key = 0
        for position, key_bits in keyed:
            key |= int.from_bytes(tops[position::draws].translate(key_bits), "little")
        tallies = int.from_bytes(key.to_bytes(rounds, "little").translate(table), "little")
        if mixed:
            masks = bytearray(tops[4::draws].translate(mode_masks))
            # each open mode draw, whole, as random() builds it
            r = masks.find(0)
            while r >= 0:
                word = int.from_bytes(raw[8 * (r * draws + 4):8 * (r * draws + 5)], "little")
                u = ((word & 0xFFFFFFFF) >> 5 << 26 | word >> 38) / 2**53
                masks[r] = _CONTROL_TALLIES if u < control_fraction else _MESSAGE_TALLIES
                r = masks.find(0, r + 1)
            tallies &= int.from_bytes(masks, "little")
        yield rounds, tallies


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
    is the one the round-by-round loop gives.  Its mean is the detection
    rate of a control-only :func:`run_session` on ``RandomSource(seed)``,
    which resolves the rounds ``MC_CHUNK_ROUNDS`` at a time from the top
    bytes of their draws, so memory is bounded by the chunk, whatever n is.
    Each convention and the comparison may be a member or its string value.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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
    after round.  A round takes the bits k, l, i, j, each 1 when its draw is
    below 1/2; then, only when ``0 < control_fraction < 1``, the mode draw,
    control when it is below ``control_fraction`` (fraction 0 is always
    message, 1 always control); then Eve's tap draw when her strategy draws;
    then the Bell draw.  The last two are taken as :func:`run_round`
    consumes them, so the session is a loop of :func:`run_round` on
    ``bit_source``, and at fraction 1 it is the stream layout of
    :func:`monte_carlo`.  Deterministic for a fixed seed.

    The rounds are not simulated one by one: :func:`_tallies` resolves them
    in chunks from the top bytes of their draws, each to the tallies of the
    leaf it reaches, which hold what :func:`control_detected` and
    :func:`decode_message` give for it, and the session counts each tally.
    The stats are the ones a loop of :func:`run_round` calls gives.  The
    draws are taken straight from the Mersenne Twister of ``bit_source``,
    not through :meth:`RandomSource.random`, which returns the same values.
    Each convention and the comparison may be a member or its string value.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if not 0.0 <= control_fraction <= 1.0:
        raise ValueError("control_fraction must be in [0, 1]")

    # only the tallies the mode can set: detections at fraction 1, errors at 0
    every_control = control_fraction == 1.0
    totals = [n_rounds if every_control else 0] + [0] * 7
    counted = (1,) if every_control else range(0 if control_fraction else 2, 8)
    for rounds, tallies in _tallies(eve, conventions, comparison, n_rounds,
                                    control_fraction, bit_source):
        # bit 0 of each of the chunk's tally bytes
        lanes = int.from_bytes(b"\1" * rounds, "little")
        for t in counted:
            totals[t] += (tallies >> t & lanes).bit_count()
    control_rounds, detections, alice_pair, bob_pair, *bit_errors = totals
    rate = detections / control_rounds if control_rounds else 0.0
    return SessionStats(
        n_rounds=n_rounds,
        control_rounds=control_rounds,
        message_rounds=n_rounds - control_rounds,
        detections=detections,
        alice_pair_errors=alice_pair,
        bob_pair_errors=bob_pair,
        alice_bit_errors=bit_errors[:2],
        bob_bit_errors=bit_errors[2:],
        detection_rate=rate,
        survival_probability=(1.0 - rate) ** control_rounds,
        bit_seed=bit_source.seed,
    )


def message_error_rate(attack: EveStrategy) -> MessageErrorReport:
    """Exact decode-error probabilities in message mode (operator-encoding
    labels), read from the :func:`_detection_fold` of the default
    bookkeeping, the cache entry of ``enumerate_exact(attack)``; the report
    and its ``per_bit`` dict are new on every call."""
    alice_to_bob, bob_to_alice, *per_bit = _detection_fold(attack, _OE, _OE, _CONVERTED)[5]
    return MessageErrorReport(attack, alice_to_bob, bob_to_alice, dict(
        zip(("alice_bit0", "alice_bit1", "bob_bit0", "bob_bit1"), per_bit)))


_CLAIMS_EXPLANATION = (
    "The two figures disagree because the published case table scores "
    "parity-phase outcome labels against operator-encoding expected labels "
    "without converting between the two naming schemes; the same index pair "
    "names different physical Bell states in the two schemes (label_map "
    "gives the bridge).  Scoring outcome and expectation in one scheme "
    "yields the convention-consistent figure instead.  No ruling is made on "
    "which bookkeeping is intended."
)


@lru_cache(maxsize=None)
def compare_claims() -> ClaimsReport:
    """Side-by-side report of the disputed intercept-measure averages: those
    of :func:`paper_case_table` and of the operator-encoding, ``converted``
    bookkeeping, item 3 of their :func:`_detection_fold`s.  The report is
    immutable, so it is built once, the published claims' Fractions too."""
    from fractions import Fraction
    strict = _detection_fold(_PAPER_ATTACK, *_PAPER_BOOKKEEPING)[3]
    consistent = _detection_fold(_PAPER_ATTACK, _OE, _OE, _CONVERTED)[3]
    return ClaimsReport(
        paper_claim=Fraction(3, 4),
        cai_claim=Fraction(1, 2),
        strict_paper_average=strict,
        consistent_value=consistent,
        explanation=_CLAIMS_EXPLANATION,
    )
