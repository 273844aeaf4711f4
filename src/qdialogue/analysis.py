"""Exact detection-probability enumeration, the two samplers over the same
tree, and the side-by-side report of the disputed averages.

One exact walk yields every leaf of a round's tree: the 16 encoding-bit
tuples, the branches of Eve's tap action, and the four Bell outcomes, each
mass an int over a power of two.  :func:`enumerate_exact` folds the
protocol's detection rule over the leaves and :func:`message_error_rate`
its message decoder, in ints; ``Fraction``s appear only at the end of each
fold.  The two samplers read the same walk, turned into the floats of a
uniform draw's thresholds once per strategy and outcome convention:
:func:`monte_carlo` resolves control rounds in bulk with numpy, which only
it imports, and :func:`run_session` resolves mixed sessions in pure
Python.  Both take their draws from one stream in the order a loop of
:func:`protocol.run_round` takes them.  A session draws straight from the
stream's Mersenne Twister and counts the leaves its rounds reach; a table
cached per configuration gives each leaf a tally vector (control,
detected, pair and bit errors), and the stats are the counts folded
against those vectors.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby, product
from operator import mul

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
    branch_index,
)

BitTuple = tuple[int, int, int, int]

ALL_BIT_TUPLES: tuple[BitTuple, ...] = tuple(product((0, 1), repeat=4))

#: the bit tuples (i, j, k, l) in the order the samplers draw them: the
#: bits k, l, i, j read as a binary number, 8k + 4l + 2i + j
DRAW_ORDER: tuple[BitTuple, ...] = tuple((i, j, k, l) for k, l, i, j in ALL_BIT_TUPLES)

#: the code of each (a, b) bit pair
_CODES = {(a, b): PauliCode(a, b) for a, b in product((0, 1), repeat=2)}

#: rounds whose draws :func:`monte_carlo` takes and resolves at once; its
#: memory grows with this, not with the number of rounds
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
    ``branch_averages`` each default to a new empty dict."""

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
        average: Fraction = Fraction(0),
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


def _over_power_of_two(probs: Iterable[Fraction]) -> tuple[int, tuple[int, ...]]:
    """Dyadic probabilities as (e, their integer numerators over 2**e)."""
    probs = tuple(probs)
    top = max((p.denominator for p in probs), default=1)
    if top & (top - 1) or any(top % p.denominator for p in probs):
        raise InvariantError(f"non-dyadic branch probability in {probs}")
    return top.bit_length() - 1, tuple(p.numerator * top // p.denominator for p in probs)


@lru_cache(maxsize=None)
def _draw_weights(thresholds: tuple[float, ...]) -> tuple[int, tuple[int, ...]]:
    """Exact probability of each branch of a uniform draw: the gaps between
    its thresholds, which are dyadic, as floats are."""
    bounds = (0, *map(Fraction, thresholds), 1)
    return _over_power_of_two(hi - lo for lo, hi in zip(bounds, bounds[1:]))


def _home_branch(state: ExactState) -> str:
    home0, home1 = (_gabs2(state.z[h]) + _gabs2(state.z[h + 1]) for h in (0, 2))
    if home0 and home1:
        raise InvariantError("home qubit not definite after intercept")
    return "b" if home1 else "a"


def _tap(attack: EveStrategy, route: Route, exp: int, branches: list) -> tuple[int, list]:
    """Expand every branch through one channel tap.  Branch masses are ints
    over 2**exp; returns the new exponent and the new branches."""
    action = attack.tap(route)
    if action is None:
        return exp, branches
    if action is MEASURE:
        split = [(mass, p, collapsed, sel)
                 for mass, state, _branch, sel in branches
                 for p, collapsed, _t in measure_t_branches(state)]
        e, weights = _over_power_of_two(p for _, p, _, _ in split)
        return exp + e, [(mass * w, collapsed, _home_branch(collapsed), sel)
                         for w, (mass, _p, collapsed, sel) in zip(weights, split)]
    e, weights = _draw_weights(action.thresholds)
    choices = [(w, _CODES[uv], uv) for w, uv in zip(weights, action.codes)]
    return exp + e, [(mass * w, apply_pauli_t_exact(state, code), branch, uv)
                     for mass, state, branch, _sel in branches
                     for w, code, uv in choices]


def _leaves(attack: EveStrategy, bit_tuples: Iterable[BitTuple],
            convention: Convention) -> tuple[int, list]:
    """The exact walk: every leaf of each encoding-bit tuple's round, in
    order, grouped by Eve branch.

    Returns (D, leaves), a leaf being (bit tuple, Eve branch tag, applied
    (u, v) or None, masses): its Eve branch's probability times the Born
    weight of each Bell outcome under ``convention``, in
    ``BELL_LABEL_ORDER``, as ints over 2**D.
    """
    start = exact_bell(Convention.OPERATOR_ENCODING, 0, 0)
    walked = []
    for bits in bit_tuples:
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
    return top, [(bits, branch, sel, tuple(w * (mass << top - e) for w in weights))
                 for e, mass, bits, branch, sel, weights in walked]


@lru_cache(maxsize=None)
def _detection_flags(outcome_convention: Convention,
                     expectation_convention: Convention,
                     comparison: Comparison) -> dict[BitTuple, tuple[bool, ...]]:
    """Per bit tuple (i, j, k, l), whether each Bell outcome of its control
    round, in ``BELL_LABEL_ORDER``, flags Eve."""
    flags = {}
    for i, j, k, l in ALL_BIT_TUPLES:
        config = RoundConfig((k, l), (i, j), Mode.CONTROL, outcome_convention,
                             expectation_convention, comparison)
        flags[i, j, k, l] = tuple(control_detected(config, BellLabel(*kl, outcome_convention))
                                  for kl in BELL_LABEL_ORDER)
    return flags


@lru_cache(maxsize=None)
def _round_tree(attack: EveStrategy, convention: Convention) -> tuple:
    """Every way a round can go, as the thresholds of its uniform draws:
    the exact walk's tree in floats, for the samplers.

    One entry per bit tuple, in ``DRAW_ORDER``: Eve's tap thresholds and,
    per tap branch, the Bell thresholds and the labels under
    ``convention``.  With tap draw u and Bell draw w, :func:`run_round`
    measures ``labels[branch_index(bell_thresholds, w)]`` on branch
    ``branch_index(tap_thresholds, u)``, drawing u only when there are tap
    thresholds.  The tap thresholds are the cumulative exact branch masses
    but the last; the Bell thresholds are the cumulative exact masses of
    the branch's nonzero labels, in ``BELL_LABEL_ORDER``, but the last,
    over the branch mass.  Each is dyadic, so its float is exact.
    """
    exp, leaves = _leaves(attack, DRAW_ORDER, convention)
    tree = []
    for _bits, group in groupby(leaves, lambda leaf: leaf[0]):
        branch_masses = [masses for _bits, _branch, _sel, masses in group]
        totals = [sum(masses) for masses in branch_masses]
        taps = tuple(acc / (1 << exp) for acc in accumulate(totals[:-1]))
        nodes = []
        for masses, total in zip(branch_masses, totals):
            labels = tuple(BellLabel(k, l, convention)
                           for (k, l), mass in zip(BELL_LABEL_ORDER, masses) if mass)
            nonzero = [mass for mass in masses if mass]
            nodes.append((tuple(acc / total for acc in accumulate(nonzero[:-1])),
                          labels))
        tree.append((taps, tuple(nodes)))
    return tuple(tree)


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
    weight, and folds :func:`protocol.control_detected` over the leaves.
    The fold sums integer masses over one power of two and builds the
    report's ``Fraction``s at its end; ``case_order`` only permutes the
    fold (results are order-independent, which the test suite asserts).
    """
    bit_tuples = tuple(case_order) if case_order is not None else ALL_BIT_TUPLES
    if sorted(bit_tuples) != sorted(ALL_BIT_TUPLES):
        raise ValueError("case_order must be a permutation of all 16 bit tuples")
    comparison = Comparison(comparison)
    flags = _detection_flags(outcome_convention, expectation_convention, comparison)
    exp, leaves = _leaves(attack, bit_tuples, outcome_convention)

    # (detected mass, total mass) per case and per applied (u, v)
    cases: dict[tuple[int, int, str], tuple[int, int]] = {}
    selections: dict[tuple[int, int], tuple[int, int]] = {}
    for (i, j, k, l), branch, sel, masses in leaves:
        hit, mass = sum(map(mul, masses, flags[i, j, k, l])), sum(masses)
        det, tot = cases.get((i ^ k, j ^ l, branch), (0, 0))
        cases[i ^ k, j ^ l, branch] = (det + hit, tot + mass)
        if sel is not None:
            det, tot = selections.get(sel, (0, 0))
            selections[sel] = (det + hit, tot + mass)

    report = DetectionReport(
        attack, outcome_convention, expectation_convention, comparison,
        per_case={CaseDescriptor(m, n, m ^ n, br): Fraction(det, tot)
                  for (m, n, br), (det, tot) in cases.items()},
        # every bit tuple weighs 1 / 16
        average=Fraction(sum(det for det, _ in cases.values()), len(bit_tuples) << exp),
    )
    for br in sorted({br for _, _, br in cases}):
        dets, tots = zip(*(v for (_, _, b), v in cases.items() if b == br))
        report.branch_averages[br] = Fraction(sum(dets), sum(tots))
    if selections:
        report.per_selection = {uv: Fraction(*selections[uv]) for uv in sorted(selections)}
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

    Node ``b * B + t`` is bit tuple ``DRAW_ORDER[b]`` with Eve's tap
    branch t, of B per tuple.  Returns B; the tap thresholds, shape
    (16, B - 1); the Bell thresholds, shape (16 B, 3); and the detected
    flag of each Bell outcome slot, shape (16 B, 4).  The thresholds are
    those of :func:`_round_tree`, with the Bell thresholds padded with +inf
    so that every node has three.
    """
    import numpy as np

    table = _detection_flags(outcome_convention, expectation_convention,
                             Comparison(comparison))
    tap_thresholds, bell_thresholds, detected = [], [], []
    for bits, (taps, branches) in zip(DRAW_ORDER,
                                      _round_tree(attack, outcome_convention)):
        tap_thresholds.append(taps)
        for thresholds, labels in branches:
            bell_thresholds.append(thresholds + (math.inf,) * (3 - len(thresholds)))
            flags = [table[bits][BELL_LABEL_ORDER.index(label.bits())]
                     for label in labels]
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


@lru_cache(maxsize=None)
def _session_table(eve: EveStrategy, outcome_conv: Convention,
                   expectation_conv: Convention,
                   comparison: Comparison) -> tuple[tuple, tuple]:
    """What :func:`run_session` resolves its rounds with, built once per
    configuration from :func:`_round_tree` and :func:`_detection_flags`.

    Returns (nodes, columns).  Node 8k + 4l + 2i + j, in ``DRAW_ORDER``,
    holds the tap thresholds and, per tap branch, the Bell thresholds and
    the index of the branch's first leaf; the leaves of Bell slot s are at
    first + 2s (message) and first + 2s + 1 (control).  Each leaf has one
    tally vector, what a round reaching it adds to the session: control,
    detected, Alice's and Bob's pair errors, and the bit errors of Alice's
    bits i, j and of Bob's bits k, l.  ``columns`` holds the vectors
    transposed, one tuple per tally over every leaf.
    """
    flags = _detection_flags(outcome_conv, expectation_conv, comparison)
    nodes, tallies = [], []
    for (i, j, k, l), (taps, branches) in zip(DRAW_ORDER,
                                             _round_tree(eve, outcome_conv)):
        config = RoundConfig((k, l), (i, j))
        tap_nodes = []
        for bell_thresholds, labels in branches:
            tap_nodes.append((bell_thresholds, len(tallies)))
            for label in labels:
                da, db = decode_message(config, label)
                detected = flags[i, j, k, l][BELL_LABEL_ORDER.index(label.bits())]
                tallies.append((0, 0, da != (i, j), db != (k, l),
                                da[0] != i, da[1] != j, db[0] != k, db[1] != l))
                tallies.append((1, detected, 0, 0, 0, 0, 0, 0))
        nodes.append((taps, tuple(tap_nodes)))
    return tuple(nodes), tuple(zip(*tallies))


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

    The rounds are not simulated one by one: each resolves its draws by
    lookups in the table of :func:`_session_table`, cached per (strategy,
    conventions, comparison), and the session counts how often each (bits,
    tap branch, Bell slot, mode) leaf is reached.  The stats fold those
    counts against the leaves' tally vectors, which hold what
    :func:`control_detected` and :func:`decode_message` give for the leaf,
    so they are the ones a loop of :func:`run_round` calls gives.  The
    draws are taken straight from the Mersenne Twister of ``bit_source``,
    not through :meth:`RandomSource.random`, which returns the same values.
    """
    if n_rounds < 1:
        raise ValueError("n_rounds must be >= 1")
    if not 0.0 <= control_fraction <= 1.0:
        raise ValueError("control_fraction must be in [0, 1]")

    comparison = Comparison(comparison)
    nodes, columns = _session_table(eve, *conventions, comparison)
    counts = [0] * len(columns[0])
    # the generator's own method: the RandomSource.random wrapper would add
    # a Python-level call per draw, about a third of a round's time
    draw = bit_source._rng.random
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

    control_rounds, detections, alice_pair, bob_pair, *bit_errors = (
        sum(map(mul, column, counts)) for column in columns
    )
    stats = SessionStats(
        n_rounds=n_rounds,
        control_rounds=control_rounds,
        message_rounds=n_rounds - control_rounds,
        detections=detections,
        alice_pair_errors=alice_pair,
        bob_pair_errors=bob_pair,
        alice_bit_errors=bit_errors[:2],
        bob_bit_errors=bit_errors[2:],
        bit_seed=bit_source.seed,
    )
    if stats.control_rounds:
        stats.detection_rate = stats.detections / stats.control_rounds
        stats.survival_probability = (1.0 - stats.detection_rate) ** stats.control_rounds
    return stats


def message_error_rate(attack: EveStrategy) -> MessageErrorReport:
    """Exact decode-error probabilities in message mode (operator-encoding
    labels), folding :func:`protocol.decode_message` over the leaves of the
    same exact walk, in integer masses until the end."""
    conv = Convention.OPERATOR_ENCODING
    exp, leaves = _leaves(attack, ALL_BIT_TUPLES, conv)
    errors = [0] * 6
    for (i, j, k, l), _branch, _sel, masses in leaves:
        config = RoundConfig(bob_bits=(k, l), alice_bits=(i, j))
        for (kk, ll), mass in zip(BELL_LABEL_ORDER, masses):
            if mass:
                alice, bob = decode_message(config, BellLabel(kk, ll, conv))
                wrong = (alice != (i, j), bob != (k, l),
                         alice[0] != i, alice[1] != j, bob[0] != k, bob[1] != l)
                errors = [e + mass * flag for e, flag in zip(errors, wrong)]
    # every bit tuple weighs 1 / 16
    alice_to_bob, bob_to_alice, *per_bit = (Fraction(e, 16 << exp) for e in errors)
    return MessageErrorReport(attack, alice_to_bob, bob_to_alice, dict(
        zip(("alice_bit0", "alice_bit1", "bob_bit0", "bob_bit1"), per_bit)
    ))


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
