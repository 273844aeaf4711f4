"""Exact detection-probability reports and the side-by-side report of the
disputed averages.

The exact walk and the outcome-tally rows live in :mod:`qdialogue.exactstate`
(:func:`~qdialogue.exactstate._walk`,
:func:`~qdialogue.exactstate._outcome_tallies`).  One exact fold,
:func:`_detection_fold`, cached per configuration, sums the detected bit
and the error bits of those rows against the walk's masses in ints, so a
report only orders and copies it, with ``itemgetter`` lookups in C and
its ``per_case`` keys, interned :class:`CaseDescriptor` values, hashed by
identity; :func:`message_error_rate` reads the default bookkeeping's fold and
:func:`compare_claims` its two averages.  ``Fraction``s are built only at
that fold's end, by the cached :func:`compare_claims` and by
:meth:`ExactState.norm_sq`, each importing :mod:`fractions` itself.  The
reports take each convention and comparison as a member or its string
value, made members by :func:`~qdialogue.model.bookkeeping`, one cache
entry for both.

The seeded samplers live in :mod:`qdialogue.sampling`, and an exact report
loads only this module, :mod:`qdialogue.exactstate` and :mod:`qdialogue.model`.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import chain
from operator import itemgetter, mul

from . import _lazy_names
from .exactstate import _PLACE, _TALLY_BITS, ALL_BIT_TUPLES, BitTuple, _outcome_tallies, _walk
from .model import (
    _CONVERTED,
    _OE,
    _PP,
    Comparison,
    Convention,
    EveStrategy,
    FrozenValue,
    InterceptMeasure,
    Route,
    Value,
    _bit,
    bookkeeping,
)

# Not used here, but tests/test_acceptance.py imports monte_carlo from here and
# bench/tracer.py wraps each function, and counts RoundConfig, at this lookup
# site; resolved on first access, so an exact report loads neither engine.
__getattr__, __dir__ = _lazy_names(globals(), {
    "monte_carlo": "sampling", "run_round": "protocol", "RoundConfig": "model",
    "apply_pauli_t_exact": "exactstate", "measure_t_branches": "exactstate",
    "bell_weights_exact": "exactstate"})


class CaseDescriptor(FrozenValue):
    """One of the four (m, n) cases, per Eve branch.

    m = i xor k, n = j xor l, parity = m xor n; eve_branch is 'a'/'b' for
    the two intercept collapses and 'none' when the attack has no
    measurement branch.

    The twelve descriptors are built once, at import, and the constructor
    returns the one of its fields, so equal descriptors are the same
    object and hash by identity, in C, like :class:`Convention` members;
    copies and pickles, rebuilt through the constructor, return it too.
    An m or n that is no 0/1 int raises as :func:`~qdialogue.model._bit`
    does, a wrong parity or an unknown branch ``ValueError``, and nothing
    is built.
    """

    __slots__ = ("m", "n", "parity", "eve_branch")
    __hash__ = object.__hash__

    def __new__(cls, m: int, n: int, parity: int, eve_branch: str = "none"):
        m, n = _bit(m, "case bit m"), _bit(n, "case bit n")
        if parity != m ^ n:
            raise ValueError("parity must equal m xor n")
        try:
            return _CASES[m, n, eve_branch]
        except (KeyError, TypeError):
            raise ValueError(
                f"eve_branch must be 'a', 'b' or 'none', got {eve_branch!r}") from None

    ROMAN = {(0, 0): "i", (0, 1): "ii", (1, 0): "iii", (1, 1): "iv"}

    def roman(self) -> str:
        return self.ROMAN[(self.m, self.n)]


def _case(m: int, n: int, eve_branch: str) -> CaseDescriptor:
    """One of the twelve, built once, past the constructor that looks it up."""
    case = object.__new__(CaseDescriptor)
    for name, value in zip(CaseDescriptor.__slots__, (m, n, m ^ n, eve_branch)):
        object.__setattr__(case, name, value)
    return case


#: the closed set of descriptors, by (m, n, eve_branch)
_CASES = {(m, n, branch): _case(m, n, branch)
          for m in (0, 1) for n in (0, 1) for branch in ("a", "b", "none")}


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
    for (i, j, k, l), row, group in zip(ALL_BIT_TUPLES, rows, groups):
        detected = row.translate(_TALLY_BITS[1])
        for branch, sel, masses in group:
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
              for column in zip(*(m for _branch, _sel, m in group))]
    tallies = b"".join(rows)
    # every bit tuple weighs 1 / 16
    average, *errors = (Fraction(sum(map(mul, masses, tallies.translate(bit))), 16 << exp)
                        for bit in _TALLY_BITS[1:])
    return (
        tuple((CaseDescriptor(m, n, m ^ n, br), Fraction(*sums))
              for (m, n, br), sums in cases.items()),
        tuple(tuple(dict.fromkeys(index[i ^ k, j ^ l, branch] for branch, _sel, _m in group))
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
    weight, and folds :func:`~qdialogue.model.control_detected` over them:
    the cached :func:`_detection_fold`, whose entry for the default
    bookkeeping :func:`message_error_rate` shares.  Each convention and the
    comparison may be given as a member or as its string value, which
    :func:`~qdialogue.model.bookkeeping` turns into the member the report
    carries; anything else raises ``ValueError``.  ``case_order`` only
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
#: the published bookkeeping's members, bound once like :mod:`protocol`'s:
#: looking a member up on its enum costs more than a warm fold's cache hit
_PAPER_BOOKKEEPING = (_PP, _OE, Comparison.STRICT_PAPER)


def paper_case_table() -> DetectionReport:
    """The published case table: intercept-measure on the outbound route with
    parity-phase outcome labels scored strictly against operator-encoding
    expected labels.  Per-case values 1, 1, 1/2, 1/2 with average 3/4 for
    both branches."""
    return enumerate_exact(_PAPER_ATTACK, *_PAPER_BOOKKEEPING)


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
