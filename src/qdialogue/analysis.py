"""Exact detection-probability reports and the side-by-side report of the
disputed averages.

The exact walk and the outcome-tally rows live in :mod:`qdialogue.exactstate`
(:func:`~qdialogue.exactstate._walk`,
:func:`~qdialogue.exactstate._outcome_tallies`).  One exact fold,
:func:`_detection_fold`, cached per configuration, sums the walk's leaf
masses in ints, by case, branch, selection and tally byte, and keeps each
case as one (:class:`CaseDescriptor`, value) pair: a report's ``per_case``
is one ``dict``, built in C, over the pairs each bit tuple reaches, keyed by
interned descriptors hashed by identity; :func:`message_error_rate` reads the
default bookkeeping's fold and :func:`compare_claims` its two averages.
``Fraction``s are built only at that fold's end, by the cached
:func:`compare_claims` and by :meth:`ExactState.norm_sq`, each importing
:mod:`fractions` itself.  The reports take each convention and comparison
as a member or its string value, made members by
:func:`~qdialogue.model.bookkeeping`, one cache entry for both.

The seeded samplers live in :mod:`qdialogue.sampling`, and an exact report
loads only this module, :mod:`qdialogue.exactstate` and :mod:`qdialogue.model`.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import chain
from operator import itemgetter

from . import _lazy_names
from .exactstate import _PLACE, ALL_BIT_TUPLES, BitTuple, _outcome_tallies, _walk
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
    An m, n or parity that is no 0/1 int raises as
    :func:`~qdialogue.model._bit` does, a wrong parity or an unknown branch
    ``ValueError``, and nothing is built.
    """

    __slots__ = ("m", "n", "parity", "eve_branch")
    __hash__ = object.__hash__

    def __new__(cls, m: int, n: int, parity: int, eve_branch: str = "none"):
        m, n = _bit(m, "case bit m"), _bit(n, "case bit n")
        if _bit(parity, "case parity") != m ^ n:
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
    """Exact detection probabilities of one attack under one bookkeeping: by
    :class:`CaseDescriptor` (``per_case``) and by Eve branch, dicts of
    ``Fraction``s; the average; and by (u, v) a dict, or None when the attack
    applies no selection.  The constructor, derived by
    :class:`~qdialogue.model.Value`, takes all eight fields, in order."""

    __slots__ = ("attack", "outcome_convention", "expectation_convention",
                 "comparison", "per_case", "branch_averages", "average",
                 "per_selection")


class MessageErrorReport(FrozenValue):
    """Exact pair- and bit-level decode error probabilities (message mode).

    ``alice_to_bob``: Bob mis-decodes Alice's pair; ``bob_to_alice``: Alice
    mis-decodes Bob's pair.
    """

    __slots__ = ("attack", "alice_to_bob", "bob_to_alice", "per_bit")


class ClaimsReport(FrozenValue):
    __slots__ = ("paper_claim", "cai_claim", "strict_paper_average",
                 "consistent_value", "explanation")


@lru_cache(maxsize=None)
def _detection_fold(attack: EveStrategy, outcome_conv: Convention,
                    expectation_conv: Convention, comparison: Comparison) -> tuple:
    """The one exact fold, once per configuration: group sums over the
    leaves of :func:`_walk`, with tallies ``rows[place << 2 | outcome]``,
    in ints until the final ``Fraction``s.  Returns, all immutable, (pairs,
    reach, branch_averages, average, per_selection, errors): each (m, n, Eve
    branch) case's (``CaseDescriptor``, detection probability) pair, in the
    order the leaves first reach it; per bit tuple, in ``ALL_BIT_TUPLES``
    order, those same pair objects for the cases its leaves reach, in leaf
    order; the sorted (branch, average) pairs; the average; the sorted
    ((u, v), average) pairs, or None; and the probabilities of the message
    round's one error (:func:`~qdialogue.model.message_error`): a pair
    error, then m and n.  Decoding reads neither the expected labels nor the
    comparison and converts ``pp`` outcome labels, so every configuration's
    errors are those of :func:`message_error_rate`."""
    from fractions import Fraction
    exp, leaves = _walk(attack, outcome_conv)
    rows = _outcome_tallies(outcome_conv, expectation_conv, comparison)
    # (detected, total) mass per case, Eve branch and (u, v); mass per tally
    cases, branches, selections, tallied = {}, {}, {}, {}
    reach = [{} for _ in ALL_BIT_TUPLES]
    for place, _b, branch, sel, outcome, mass in leaves:
        i, j, k, l = ALL_BIT_TUPLES[place]
        tally = rows[place << 2 | outcome]
        tallied[tally] = tallied.get(tally, 0) + mass
        hit = mass if tally & 2 else 0
        case = (i ^ k, j ^ l, branch)
        reach[place][case] = None
        for sums, key in ((cases, case), (branches, branch), (selections, sel)):
            det, tot = sums.get(key, (0, 0))
            sums[key] = (det + hit, tot + mass)
    selections.pop(None, None)
    pairs = {(m, n, br): (CaseDescriptor(m, n, m ^ n, br), Fraction(*sums))
             for (m, n, br), sums in cases.items()}
    # every bit tuple weighs 1 / 16
    average, *errors = (Fraction(sum(m for tally, m in tallied.items() if tally >> t & 1),
                                 16 << exp) for t in range(1, 5))
    return (
        tuple(pairs.values()),
        tuple(tuple(map(pairs.__getitem__, reached)) for reached in reach),
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
    ``ValueError`` otherwise.  The places pick, in C, the fold's (case,
    value) pairs each bit tuple reaches; one ``dict`` over them keeps each
    case where it first comes.  The report and its dicts are new on every
    call, so changing them changes no cache.
    """
    places = None if case_order is None else _places(case_order)
    outcome_convention, expectation_convention, comparison = bookkeeping(
        outcome_convention, expectation_convention, comparison)
    _pairs, reach, branch_averages, average, per_selection, _errors = _detection_fold(
        attack, outcome_convention, expectation_convention, comparison)
    cases = dict(chain.from_iterable(reach if places is None else itemgetter(*places)(reach)))
    return DetectionReport(attack, outcome_convention, expectation_convention, comparison, cases,
                           dict(branch_averages), average, per_selection and dict(per_selection))


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
    bookkeeping, the cache entry of ``enumerate_exact(attack)``: both
    parties miss by its one error (m, n); the report and its ``per_bit``
    dict are new on every call."""
    pair, m, n = _detection_fold(attack, _OE, _OE, _CONVERTED)[5]
    return MessageErrorReport(attack, pair, pair, {
        "alice_bit0": m, "alice_bit1": n, "bob_bit0": m, "bob_bit1": n})


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
