"""Round choreography: determinism without Eve, decoding, mode blindness."""

import copy
import math
import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, groupby, product
from operator import itemgetter

import numpy as np
import pytest

from qdialogue import sampling
from qdialogue.analysis import (
    CaseDescriptor,
    _detection_fold,
    enumerate_exact,
    message_error_rate,
)
from qdialogue.attacks import AppliedPauli, MeasuredBranch
from qdialogue.exactstate import ALL_BIT_TUPLES, _outcome_tallies, _walk
from qdialogue.model import (
    BELL_LABEL_ORDER,
    BellLabel,
    CoinIZ,
    Comparison,
    Convention,
    DisturbPauli,
    Fixed,
    InterceptMeasure,
    InvariantError,
    Mode,
    Passive,
    RandomSource,
    RoundConfig,
    Route,
    bookkeeping,
    control_detected,
    expected_outcome,
    label_map,
    message_error,
)
from qdialogue.protocol import run_round
from qdialogue.qcore import ALG_TOL
from qdialogue.sampling import (
    _round_leaves,
    _tallies,
    monte_carlo,
    run_session,
)
from oracle import oracle_message_errors, oracle_word_leaf
from test_analysis import ALL_COMBOS, ALL_STRATEGIES, MC_SEEDS, StubSelection, StubSource
from test_values import empty_session_stats

OE = Convention.OPERATOR_ENCODING
PP = Convention.PARITY_PHASE


def reference_sessions(ns, control_fraction, bit_source, eve, conventions,
                       comparison=Comparison.CONVERTED):
    """The SessionStats of the first n rounds, for each n in ``ns``, from the
    reference loop: per round, at a fraction strictly between 0 and 1, the
    mode drawn from ``bit_source``, then the round's word w drawn from it,
    whose bits 31-28 are i, j, k, l, and one ``run_round`` that takes w as
    its one draw."""
    outcome_conv, expectation_conv = conventions
    stats = empty_session_stats(0, bit_source.seed)
    snapshots = []
    configs = {}
    for r in range(max(ns)):
        if 0.0 < control_fraction < 1.0:
            control = bit_source.random() < control_fraction
        else:
            control = control_fraction == 1.0
        u = bit_source.random()
        w = int(u * 2**32)
        i, j, k, l = w >> 31 & 1, w >> 30 & 1, w >> 29 & 1, w >> 28 & 1
        mode = Mode.CONTROL if control else Mode.MESSAGE
        config = configs.get((k, l, i, j, mode))
        if config is None:
            config = configs[k, l, i, j, mode] = RoundConfig(
                (k, l), (i, j), mode, outcome_conv, expectation_conv, comparison
            )
        word = StubSource([u])
        transcript = run_round(config, eve, word)
        assert not word.draws
        if mode is Mode.CONTROL:
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
        if r + 1 in ns:
            snapshot = copy.deepcopy(stats)
            snapshot.n_rounds = r + 1
            if snapshot.control_rounds:
                snapshot.detection_rate = snapshot.detections / snapshot.control_rounds
                snapshot.survival_probability = (
                    (1.0 - snapshot.detection_rate) ** snapshot.control_rounds
                )
            snapshots.append(snapshot)
    return snapshots


class TestExpectedOutcome:
    def test_all_zero(self):
        assert expected_outcome(0, 0, 0, 0, OE) == BellLabel(0, 0, OE)

    def test_xor_composition(self):
        assert expected_outcome(1, 0, 0, 1, OE) == BellLabel(1, 1, OE)

    def test_parity_phase_is_mapped(self):
        assert expected_outcome(0, 0, 0, 0, PP) == BellLabel(0, 1, PP)
        for i, j, k, l in product((0, 1), repeat=4):
            assert expected_outcome(i, j, k, l, PP) == label_map(
                expected_outcome(i, j, k, l, OE)
            )

    @pytest.mark.parametrize("convention", list(Convention), ids=repr)
    def test_value_names_the_member(self, convention):
        for i, j, k, l in ALL_BIT_TUPLES:
            label = expected_outcome(i, j, k, l, convention)
            assert label.convention is convention
            assert expected_outcome(i, j, k, l, convention.value) == label

    @pytest.mark.parametrize("bad", ["bogus", "OE", None, 1, ["oe"]], ids=repr)
    def test_rejects_unknown_value(self, bad):
        with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not a valid Convention$"):
            expected_outcome(0, 0, 0, 0, bad)

    @pytest.mark.parametrize("bad,error", [(True, TypeError), (1.0, TypeError),
                                           (2, ValueError), (None, TypeError)],
                             ids=["True", "1.0", "2", "None"])
    def test_bits_are_checked(self, bad, error):
        # a bool or a float equals the int it would be taken for
        for position in range(4):
            bits = [0, 0, 0, 0]
            bits[position] = bad
            with pytest.raises(error, match=f"^encoding bit {'ijkl'[position]} must be "):
                expected_outcome(*bits, OE)

    def test_label_built_from_a_value_is_scored(self):
        # converted, mixed conventions: the outcome is mapped by label_map
        config = RoundConfig((0, 0), (0, 0), Mode.CONTROL, PP, OE, "converted")
        for k, l in BELL_LABEL_ORDER:
            assert control_detected(config, BellLabel(k, l, "pp")) == control_detected(
                config, BellLabel(k, l, PP))
        assert not control_detected(config, BellLabel(0, 1, "pp"))


class TestNoEveRounds:
    @pytest.mark.parametrize("bits", list(product((0, 1), repeat=4)))
    def test_deterministic_outcome_and_decoding(self, bits):
        i, j, k, l = bits
        config = RoundConfig(bob_bits=(k, l), alice_bits=(i, j), mode=Mode.MESSAGE)
        for seed in (0, 1, 2):
            t = run_round(config, Passive(), RandomSource(seed))
            assert t.bell_outcome.bits() == (i ^ k, j ^ l)
            assert abs(t.bell_probability - 1.0) <= ALG_TOL
            assert t.decoded_alice_bits == (i, j)
            assert t.decoded_bob_bits == (k, l)
            assert t.detected is None

    @pytest.mark.parametrize("bits", list(product((0, 1), repeat=4)))
    def test_control_never_detects(self, bits):
        i, j, k, l = bits
        config = RoundConfig(bob_bits=(k, l), alice_bits=(i, j), mode=Mode.CONTROL)
        t = run_round(config, Passive(), RandomSource(5))
        assert t.detected is False
        assert t.decoded_alice_bits is None and t.decoded_bob_bits is None

    @pytest.mark.parametrize("oc,ec", list(product((OE, PP), repeat=2)))
    def test_decoding_under_every_label_pair(self, oc, ec):
        for i, j, k, l in product((0, 1), repeat=4):
            config = RoundConfig((k, l), (i, j), Mode.MESSAGE, oc, ec)
            t = run_round(config, Passive(), RandomSource(1))
            assert t.decoded_alice_bits == (i, j)
            assert t.decoded_bob_bits == (k, l)

    def test_example_round(self):
        config = RoundConfig(bob_bits=(0, 1), alice_bits=(1, 0))
        t = run_round(config, Passive(), RandomSource(0))
        assert t.bell_outcome.bits() == (1, 1)
        assert t.decoded_alice_bits == (1, 0)
        assert t.decoded_bob_bits == (0, 1)


class TestTranscripts:
    def test_snapshots_normalized(self):
        config = RoundConfig(bob_bits=(1, 0), alice_bits=(0, 1), mode=Mode.CONTROL)
        for eve in (
            Passive(),
            InterceptMeasure(Route.B_TO_A),
            DisturbPauli(Route.A_TO_B, Fixed(1, 1)),
        ):
            t = run_round(config, eve, RandomSource(9))
            for snap in t.snapshots():
                assert abs(snap.norm_sq() - 1.0) <= ALG_TOL

    def test_identity_disturbance_matches_passive(self):
        config = RoundConfig(bob_bits=(1, 1), alice_bits=(0, 1))
        a = run_round(config, DisturbPauli(Route.A_TO_B, Fixed(0, 0)), RandomSource(3))
        b = run_round(config, Passive(), RandomSource(3))
        assert a.bell_outcome == b.bell_outcome
        assert a.after_eve_a2b.amp == b.after_eve_a2b.amp
        assert a.decoded_alice_bits == b.decoded_alice_bits

    def test_mode_blindness(self):
        # same seed: identical states, Eve record, and outcome in both modes
        for seed in range(10):
            msg = run_round(
                RoundConfig(bob_bits=(0, 0), alice_bits=(0, 0), mode=Mode.MESSAGE),
                InterceptMeasure(Route.B_TO_A),
                RandomSource(seed),
            )
            ctl = run_round(
                RoundConfig(bob_bits=(0, 0), alice_bits=(0, 0), mode=Mode.CONTROL),
                InterceptMeasure(Route.B_TO_A),
                RandomSource(seed),
            )
            assert [s.amp for s in msg.snapshots()] == [s.amp for s in ctl.snapshots()]
            assert msg.eve_record == ctl.eve_record
            assert msg.bell_outcome == ctl.bell_outcome

    def test_intercept_control_example(self):
        # all-zero bits, branch a: outcome (0,0) or (1,1), detected iff not (0,0)
        config = RoundConfig(bob_bits=(0, 0), alice_bits=(0, 0), mode=Mode.CONTROL)
        seen = set()
        for seed in range(40):
            t = run_round(config, InterceptMeasure(Route.B_TO_A), RandomSource(seed))
            assert t.bell_outcome.bits() in {(0, 0), (1, 1)}
            assert abs(t.bell_probability - 0.5) <= ALG_TOL
            assert t.detected == (t.bell_outcome.bits() != (0, 0))
            seen.add(t.bell_outcome.bits())
        assert seen == {(0, 0), (1, 1)}


class TestConventionCoherence:
    def test_pp_pp_matches_oe_oe_detection(self):
        # relabeling both sides identically preserves the indicator
        for seed in range(30):
            for bits in ((0, 0, 0, 0), (1, 0, 0, 1), (1, 1, 1, 0)):
                i, j, k, l = bits
                oe = run_round(
                    RoundConfig((k, l), (i, j), Mode.CONTROL, OE, OE),
                    InterceptMeasure(Route.B_TO_A),
                    RandomSource(seed),
                )
                pp = run_round(
                    RoundConfig((k, l), (i, j), Mode.CONTROL, PP, PP),
                    InterceptMeasure(Route.B_TO_A),
                    RandomSource(seed),
                )
                assert oe.detected == pp.detected


class TestSession:
    def test_passive_session_clean(self):
        stats = run_session(500, 0.5, RandomSource(11), Passive())
        assert stats.detections == 0
        assert stats.detection_rate == 0.0
        assert stats.alice_pair_errors == 0 and stats.bob_pair_errors == 0
        assert stats.survival_probability == 1.0
        assert stats.control_rounds + stats.message_rounds == 500

    def test_deterministic_for_fixed_seed(self):
        a = run_session(300, 0.4, RandomSource(21), InterceptMeasure(Route.B_TO_A))
        b = run_session(300, 0.4, RandomSource(21), InterceptMeasure(Route.B_TO_A))
        assert a == b

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            run_session(0, 0.5, RandomSource(0), Passive())

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            run_session(10, 1.5, RandomSource(0), Passive())

    @pytest.mark.parametrize("n_rounds,fraction", [(True, 0.5), (False, 0.5), (5.0, 0.5),
                                                   (5, True), (5, False),
                                                   (5, np.True_), (5, np.False_)], ids=repr)
    def test_rejects_bools_and_non_integer_rounds(self, n_rounds, fraction):
        with pytest.raises(TypeError):
            run_session(n_rounds, fraction, RandomSource(0), Passive())

    @pytest.mark.parametrize("source", [None, 0, random.Random(0)],
                             ids=lambda s: type(s).__name__)
    def test_rejects_a_source_that_is_not_a_random_source(self, fresh_walk, source):
        with pytest.raises(TypeError, match="bit_source must be a RandomSource"):
            run_session(10, 0.5, source, InterceptMeasure())
        assert _round_leaves.cache_info().currsize == 0
        assert _outcome_tallies.cache_info().currsize == 0

    def test_integer_fractions_are_accepted(self):
        assert run_session(5, 1, RandomSource(0), Passive()) == (
            run_session(5, 1.0, RandomSource(0), Passive()))

    def test_detection_rate_plausible(self):
        stats = run_session(
            4000, 1.0, RandomSource(3), DisturbPauli(Route.A_TO_B, Fixed(1, 1))
        )
        assert stats.control_rounds == 4000
        assert stats.detection_rate == 1.0
        assert stats.survival_probability == 0.0

    def test_seed_metadata_recorded(self):
        stats = run_session(10, 0.0, RandomSource(77), Passive())
        assert stats.bit_seed == 77
        assert stats.generator_id == RandomSource.GENERATOR_ID


class TestSessionDecoding:
    """Message rounds decode in operator-encoding labels, whatever the label
    conventions of the outcome and the expectation."""

    @pytest.mark.parametrize("oc,ec", list(product((OE, PP), repeat=2)))
    @pytest.mark.parametrize("comparison", list(Comparison))
    def test_passive_session_has_no_errors(self, oc, ec, comparison):
        stats = run_session(400, 0.0, RandomSource(1), Passive(), (oc, ec),
                            comparison=comparison)
        assert stats.message_rounds == 400
        assert stats.alice_pair_errors == 0 and stats.bob_pair_errors == 0
        assert stats.alice_bit_errors == [0, 0] and stats.bob_bit_errors == [0, 0]

    @pytest.mark.parametrize("oc,ec", list(product((OE, PP), repeat=2)))
    @pytest.mark.parametrize("attack", [InterceptMeasure(Route.B_TO_A),
                                        DisturbPauli(Route.A_TO_B, CoinIZ())],
                             ids=repr)
    def test_error_rates_track_exact_rates(self, attack, oc, ec):
        stats = run_session(2000, 0.0, RandomSource(5), attack, (oc, ec))
        exact = message_error_rate(attack)
        observed = {
            "alice_to_bob": stats.alice_pair_errors,
            "bob_to_alice": stats.bob_pair_errors,
            "alice_bit0": stats.alice_bit_errors[0],
            "alice_bit1": stats.alice_bit_errors[1],
            "bob_bit0": stats.bob_bit_errors[0],
            "bob_bit1": stats.bob_bit_errors[1],
        }
        want = {"alice_to_bob": exact.alice_to_bob,
                "bob_to_alice": exact.bob_to_alice, **exact.per_bit}
        m = stats.message_rounds
        for name, count in observed.items():
            p = float(want[name])
            se = (p * (1.0 - p) / m) ** 0.5
            assert abs(count / m - p) <= 5.0 * se, name


def midpoint(masses, index):
    """The middle of the interval of a uniform draw that picks branch
    ``index`` of branches with these integer masses."""
    bounds = (0, *accumulate(masses))
    return (bounds[index] + bounds[index + 1]) / (2 * bounds[-1])


class TestRoundFollowsTree:
    """``run_round``, forced down each branch and Bell outcome of the tree
    the samplers read by a word whose tap bits and Bell quarter sit in the
    middle of their intervals, which come from the walk's cumulative
    masses, lands on that outcome with the exact walk's weight and Eve's
    branch: a deterministic check of the float simulator against the exact
    walk."""

    #: draw weights that differ, which no shipped selection has, so that the
    #: mid-interval words pick each code by its cumulative weight; the 1/8
    #: weights need the word's low 24 bits, since a quarter holds two codes
    NON_UNIFORM = [DisturbPauli(route, StubSelection(codes, weights))
                   for route in Route
                   for codes, weights in ((((0, 0), (1, 1)), (1, 3)),
                                          (((0, 0), (0, 1), (1, 0), (1, 1)), (1, 1, 2, 4)))]

    @pytest.mark.parametrize("convention", [OE, PP])
    @pytest.mark.parametrize("attack", ALL_STRATEGIES + NON_UNIFORM, ids=repr)
    def test_every_leaf(self, attack, convention):
        _exp, leaves = _walk(attack, convention)
        # every bit tuple has leaves, at its place in ALL_BIT_TUPLES
        nodes = groupby(leaves, itemgetter(0))
        for (place, node), expected in zip(nodes, range(len(ALL_BIT_TUPLES)), strict=True):
            assert place == expected
            i, j, k, l = ALL_BIT_TUPLES[place]
            config = RoundConfig((k, l), (i, j), Mode.CONTROL, convention)
            branches = [tuple(branch) for _b, branch in groupby(node, itemgetter(1))]
            branch_masses = [sum(leaf[5] for leaf in branch) for branch in branches]
            for b, branch_leaves in enumerate(branches):
                masses = [leaf[5] for leaf in branch_leaves]
                # the tap draw's 26 bits: bits 27-26 of the word, then 23-0
                tap = int(midpoint(branch_masses, b) * 2**26)
                for x, (_place, _b, branch, sel, outcome, mass) in enumerate(branch_leaves):
                    word = (place << 28 | (tap >> 24) << 26
                            | int(midpoint(masses, x) * 4) << 24 | tap & 0xFFFFFF)
                    source = StubSource([word / 2**32])
                    transcript = run_round(config, attack, source)
                    assert not source.draws
                    assert transcript.bell_outcome == BellLabel(*BELL_LABEL_ORDER[outcome],
                                                                convention)
                    assert abs(transcript.bell_probability
                               - mass / sum(masses)) <= ALG_TOL
                    record = transcript.eve_record
                    if branch != "none":
                        assert isinstance(record, MeasuredBranch)
                        assert record.branch == branch
                    elif sel is not None:
                        assert record == AppliedPauli(*sel)
                    else:
                        assert record is None


def round_leaf(transcript):
    """A transcript's leaf as ``oracle_word_leaf`` gives one: Eve's branch
    tag, the applied (u, v) or None, and the outcome label's bits."""
    record = transcript.eve_record
    if isinstance(record, MeasuredBranch):
        eve = record.branch, None
    else:
        eve = "none", None if record is None else (record.u, record.v)
    return (*eve, (transcript.bell_outcome.k, transcript.bell_outcome.l))


def walk_leaf(leaves, place, tap, bell_quarter):
    """The leaf of the exact walk's ``leaves`` at ``place`` that a tap
    value ``tap`` over 2**26 and a Bell quarter pick, from the integer
    masses: the first branch whose cumulative mass is above the tap value,
    then its first leaf whose cumulative mass is above the quarter."""
    node = [leaf for leaf in leaves if leaf[0] == place]
    branches = [list(branch) for _b, branch in groupby(node, itemgetter(1))]
    total = sum(leaf[5] for leaf in node)
    bounds = list(accumulate(sum(leaf[5] for leaf in branch) for branch in branches))
    branch = branches[next(b for b, c in enumerate(bounds) if c * 2**26 > tap * total)]
    bounds = list(accumulate(leaf[5] for leaf in branch))
    return branch[next(x for x, c in enumerate(bounds) if 4 * c > bell_quarter * bounds[-1])]


class TestRoundWord:
    """A round's word decides its leaf by its fields alone: the oracle's
    own branch probabilities, ``run_round`` and the samplers' key-to-leaf
    table agree on every key, whatever the low 24 bits, and a word on a
    threshold or just below it reaches the exact walk's leaf."""

    #: low 24 bits of a word: none, all, and a mixed pattern
    LOW_BITS = (0, 0xFFFFFF, 0x5A5A5A)

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_oracle_word_leaf(self, attack):
        for conv in (OE, PP):
            leaf_of_key, _tally_index = _round_leaves(attack, conv)
            _exp, leaves = _walk(attack, conv)
            for key, low in product(range(256), self.LOW_BITS):
                bits = key_bits(key)
                i, j, k, l = bits
                w = key << 24 | low
                want = oracle_word_leaf(attack, conv.value, bits, w)
                source = StubSource([w / 2**32])
                transcript = run_round(RoundConfig((k, l), (i, j), Mode.CONTROL, conv),
                                       attack, source)
                assert round_leaf(transcript) == want, (conv, hex(w))
                _place, _b, branch, sel, outcome, _mass = leaves[leaf_of_key[key]]
                assert (branch, sel, BELL_LABEL_ORDER[outcome]) == want, (conv, hex(w))

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_on_threshold_words(self, attack):
        # tap values on each quarter (low bits 0) and one below the next
        # (low bits all ones), with every Bell quarter
        for conv, (place, bits) in product((OE, PP), enumerate(ALL_BIT_TUPLES)):
            i, j, k, l = bits
            config = RoundConfig((k, l), (i, j), Mode.CONTROL, conv)
            _exp, leaves = _walk(attack, conv)
            for tap_quarter, bell_quarter, low in product(range(4), range(4), (0, 0xFFFFFF)):
                w = place << 28 | tap_quarter << 26 | bell_quarter << 24 | low
                transcript = run_round(config, attack, StubSource([w / 2**32]))
                _place, _b, branch, sel, outcome, _mass = walk_leaf(
                    leaves, place, tap_quarter << 24 | low, bell_quarter)
                assert round_leaf(transcript) == (branch, sel, BELL_LABEL_ORDER[outcome]), (
                    conv, hex(w))

    def test_tap_domain_edge(self):
        # a threshold of 2**-26 is the finest the tap's 26 bits settle: the
        # tap value 0 picks the first code, 1 and above the second
        fine = DisturbPauli(Route.A_TO_B, StubSelection(((0, 0), (1, 1)), (1, 2**26 - 1)))
        config = RoundConfig((0, 1), (1, 0), Mode.CONTROL)
        for tap, code in ((0, (0, 0)), (1, (1, 1)), (2**24, (1, 1)), (2**26 - 1, (1, 1))):
            w = 0xA << 28 | (tap >> 24) << 26 | 2 << 24 | tap & 0xFFFFFF
            record = run_round(config, fine, StubSource([w / 2**32])).eve_record
            assert record == AppliedPauli(*code), tap
        # 2**-27 is finer: raised before the round draws
        finer = DisturbPauli(Route.A_TO_B, StubSelection(((0, 0), (1, 1)), (1, 2**27 - 1)))
        source = RandomSource(0)
        state = source._rng.getstate()
        with pytest.raises(InvariantError, match="finer than a round word's 2"):
            run_round(config, finer, source)
        assert source._rng.getstate() == state


def table_expectations(attack, oc, ec, comp):
    """The expectation of each of the five tallies of a round, as a
    ``Fraction``: the mean of its bit over the 256 keys of the samplers'
    key-to-leaf table, each as likely as the next (16 nodes, 4 tap quarters,
    4 Bell quarters), with the control and the message tallies both kept."""
    oc, ec, comp = bookkeeping(oc, ec, comp)
    leaf, tally_index = _round_leaves(attack, oc)
    assert len(leaf) == len(tally_index) == 256
    table = tally_index.translate(_outcome_tallies(oc, ec, comp))
    return [Fraction(sum(byte >> t & 1 for byte in table), 256) for t in range(5)]


class TestSessionTable:
    """``run_session`` resolves rounds by lookup; the reference loop runs
    ``run_round`` per round on the same stream.  The two must agree
    exactly."""

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_table_means_are_the_exact_folds(self, attack):
        # exactly, under every bookkeeping: the control bit is always set,
        # the detected bit is the fold's average and the three error bits
        # (pair, m, n) are the fold's errors, which no bookkeeping changes
        errors = message_error_rate(attack)
        error_rates = [errors.alice_to_bob, errors.per_bit["alice_bit0"],
                       errors.per_bit["alice_bit1"]]
        for oc, ec, comp in ALL_COMBOS:
            _cases, _reach, _branches, average, _selections, fold_errors = _detection_fold(
                attack, *bookkeeping(oc, ec, comp))
            control, detected, *message = table_expectations(attack, oc, ec, comp)
            assert control == 1
            assert detected == average == enumerate_exact(attack, oc, ec, comp).average
            assert message == list(fold_errors) == error_rates

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_equals_reference_loop(self, attack):
        # n = 1 and a small odd n over every convention/comparison combo,
        # seed and control fraction; 300 rounds on the last seed
        for (oc, ec, comp), seed, fraction in product(
            ALL_COMBOS, MC_SEEDS, (0.0, 1.0, 0.5)
        ):
            ns = (1, 37, 300) if seed == MC_SEEDS[-1] else (1, 37)
            want = reference_sessions(ns, fraction, RandomSource(seed), attack,
                                      (oc, ec), comparison=comp)
            for n, expected in zip(ns, want):
                got = run_session(n, fraction, RandomSource(seed), attack,
                                  (oc, ec), comparison=comp)
                assert got == expected

    @pytest.mark.parametrize("attack", [
        InterceptMeasure(Route.A_TO_B),
        DisturbPauli(Route.B_TO_A, Fixed(1, 0)),
    ], ids=repr)
    def test_explicit_comparison(self, attack):
        for seed in MC_SEEDS:
            want, = reference_sessions((120,), 0.5, RandomSource(seed), attack,
                                       (PP, OE), "strict-paper")
            got = run_session(120, 0.5, RandomSource(seed), attack, (PP, OE),
                              "strict-paper")
            assert got == want

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_control_session_is_monte_carlo(self, attack):
        # at fraction 1 both engines read the one stream in the same layout
        n = 2053
        for (oc, ec, comp), seed in product(ALL_COMBOS, MC_SEEDS):
            stats = run_session(n, 1.0, RandomSource(seed), attack, (oc, ec),
                                comparison=comp)
            estimate = monte_carlo(attack, oc, ec, comp, n=n, seed=seed)
            assert stats.detections == round(estimate.mean * n)


class WordStream:
    """Stands in for the Mersenne Twister of a ``RandomSource`` and returns
    the given 32-bit words in order, the way ``random.Random`` returns its
    own: ``getrandbits`` as the next words, first word least significant.
    Its ``random()`` is a ``RandomSource`` draw, the next word over
    2**32."""

    def __init__(self, words):
        self.words, self.at = list(words), 0

    def _take(self, count):
        assert self.at + count <= len(self.words), "stream exhausted"
        self.at += count
        return self.words[self.at - count:self.at]

    def random(self):
        a, = self._take(1)
        return a / 4294967296.0

    def getrandbits(self, k):
        assert k % 32 == 0
        return int.from_bytes(b"".join(w.to_bytes(4, "little") for w in self._take(k // 32)),
                              "little")


def word_source(words):
    source = RandomSource(0)
    source._rng = WordStream(words)
    return source


def key_word(key):
    """A round's word whose top byte is ``key``, with its low 24 bits in the
    middle of their range."""
    return key << 24 | 1 << 23


def key_bits(key):
    """The bits i, j, k, l of a round key: its bits 7, 6, 5 and 4."""
    return key >> 7 & 1, key >> 6 & 1, key >> 5 & 1, key >> 4 & 1


class TestResolver:
    """The chunk resolver decides each round by the top byte of its word,
    through the per-walk key-to-leaf table of ``_round_leaves``."""

    def test_word_stream_is_the_twister(self):
        source = random.Random(5)
        stream = WordStream(source.getrandbits(32) for _ in range(300))
        twister = RandomSource(5)
        assert [stream.random() for _ in range(100)] == [
            twister.random() for _ in range(100)]
        assert stream.getrandbits(64 * 100) == twister._rng.getrandbits(64 * 100)

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_every_key_is_its_round(self, attack):
        # the leaf a key reaches depends on the key and the outcome
        # convention only: one round per key and convention, one word each,
        # whose top byte is the key, reaches the leaf the table names.  Then,
        # under every bookkeeping and in both modes, the samplers' tally byte
        # of each key is the rules applied to that leaf's outcome
        words = [key_word(key) for key in range(256)]
        for oc in (OE, PP):
            leaf_of_key, tally_index = _round_leaves(attack, oc)
            _exp, leaves = _walk(attack, oc)
            branch_masses = Counter()
            for place, b, *_, mass in leaves:
                branch_masses[place, b] += mass
            outcomes = []
            for key in range(256):
                i, j, k, l = key_bits(key)
                source = StubSource([key_word(key) / 2**32])
                config = RoundConfig((k, l), (i, j), Mode.CONTROL, oc)
                transcript = run_round(config, attack, source)
                assert not source.draws
                place, b, branch, sel, outcome, mass = leaves[leaf_of_key[key]]
                assert ALL_BIT_TUPLES[place] == (i, j, k, l)
                assert tally_index[key] == place << 2 | outcome
                assert transcript.bell_outcome == BellLabel(*BELL_LABEL_ORDER[outcome], oc)
                record = transcript.eve_record
                if branch != "none":
                    assert isinstance(record, MeasuredBranch)
                    assert record.branch == branch, key
                elif sel is not None:
                    assert record == AppliedPauli(*sel), key
                else:
                    assert record is None
                assert abs(transcript.bell_probability
                           - mass / branch_masses[place, b]) <= ALG_TOL
                outcomes.append(transcript.bell_outcome)
            for _oc, ec, comp in (combo for combo in ALL_COMBOS if combo[0] is oc):
                # the rules read no mode: one control config a key serves both
                want = {Mode.CONTROL: bytearray(), Mode.MESSAGE: bytearray()}
                for key, outcome in enumerate(outcomes):
                    i, j, k, l = key_bits(key)
                    config = RoundConfig((k, l), (i, j), Mode.CONTROL, oc, ec, comp)
                    m, n = message_error(config, outcome)
                    want[Mode.CONTROL].append(1 | control_detected(config, outcome) << 1)
                    want[Mode.MESSAGE].append((m | n) << 2 | m << 3 | n << 4)
                for mode, wanted in want.items():
                    tallies = b"".join(
                        chunk.to_bytes(rounds, "little")
                        for rounds, chunk in _tallies(attack, (oc, ec), comp, 256,
                                                      float(mode is Mode.CONTROL),
                                                      word_source(words)))
                    assert tallies == wanted, (oc, ec, comp, mode)

    @pytest.mark.parametrize("fraction", [0.3, 1288490189 / 2**32])
    @pytest.mark.parametrize("attack", [
        InterceptMeasure(Route.A_TO_B),
        DisturbPauli(Route.B_TO_A, Fixed(1, 0)),
    ], ids=repr)
    def test_mode_draws_on_the_open_byte(self, attack, fraction):
        # every mode word has the top byte 256 f rounds down to, so the whole
        # word settles it; the words just below, at or across, and just above
        # f come first (1288490189 / 2**32, next above 0.3, is a value
        # random() returns).  Each round's mode word comes before its round word
        rng = random.Random(11)
        word, top = math.floor(fraction * 2**32), math.floor(256 * fraction)
        assert (word - 1) >> 24 == (word + 1) >> 24 == top
        rounds = 300
        words = []
        for r in range(rounds):
            mode_word = word + r - 1 if r < 3 else top << 24 | rng.getrandbits(24)
            words += [mode_word, rng.getrandbits(32)]
        source, reference = word_source(words), word_source(words)
        want, = reference_sessions((rounds,), fraction, reference, attack, (PP, OE))
        got = run_session(rounds, fraction, source, attack, (PP, OE))
        assert got == want
        assert 0 < got.control_rounds < rounds
        assert source._rng.at == reference._rng.at == len(words)


    @pytest.mark.parametrize("fraction", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("attack", [
        InterceptMeasure(Route.A_TO_B),
        DisturbPauli(Route.B_TO_A, Fixed(1, 0)),
    ], ids=repr)
    def test_session_across_chunks(self, attack, fraction):
        # the chunk size is read when the session starts
        seed = MC_SEEDS[-1]
        ns = (16, 37, sampling.MC_CHUNK_ROUNDS + 5)
        want = reference_sessions(ns, fraction, RandomSource(seed), attack, (PP, OE))
        for chunk in (sampling.MC_CHUNK_ROUNDS, 16):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(sampling, "MC_CHUNK_ROUNDS", chunk)
                for n, expected in zip(ns, want):
                    source = RandomSource(seed)
                    source._rng = ChunkSizes(source._rng)
                    assert run_session(n, fraction, source, attack, (PP, OE)) == expected
                    per_round = source._rng.bits[0] // min(chunk, n)
                    assert source._rng.bits == [per_round * min(chunk, n - start)
                                                for start in range(0, n, chunk)]


class ChunkSizes:
    """Passes ``getrandbits`` on to a generator and records each size."""

    def __init__(self, rng):
        self.rng, self.bits = rng, []

    def getrandbits(self, k):
        self.bits.append(k)
        return self.rng.getrandbits(k)


class TestSessionStreams:
    """A session draws from its one source: it builds no other and derives
    no child stream."""

    @staticmethod
    def count_sources(monkeypatch):
        calls = Counter()
        for name in ("__init__", "child", "child_seed"):
            method = getattr(RandomSource, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(RandomSource, name, counted)
        return calls

    @pytest.mark.parametrize("attack", [Passive(), InterceptMeasure(),
                                        DisturbPauli(selection=CoinIZ())], ids=repr)
    def test_no_source_per_session(self, monkeypatch, attack):
        bits = RandomSource(3)
        calls = self.count_sources(monkeypatch)
        run_session(300, 0.5, bits, attack)
        assert not calls

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("attack", [
        InterceptMeasure(Route.A_TO_B),
        DisturbPauli(Route.B_TO_A, Fixed(1, 0)),
    ], ids=repr)
    def test_leaves_the_stream_where_the_loop_does(self, attack, fraction):
        # a session that drew one too many or one too few would leave its
        # source elsewhere, whatever its counts
        for seed, n in product(MC_SEEDS, (1, 37, 300)):
            source, reference = RandomSource(seed), RandomSource(seed)
            run_session(n, fraction, source, attack, (PP, OE))
            reference_sessions((n,), fraction, reference, attack, (PP, OE))
            assert source._rng.getstate() == reference._rng.getstate()


class TestStreamLayout:
    """The stream layout, pinned against ``random.Random`` itself rather
    than against another engine: a draw is one 32-bit Mersenne Twister word
    over 2**32, and a session takes one word a round, whatever Eve does,
    and one more for a mode word at a mixed fraction."""

    @pytest.mark.parametrize("seed", MC_SEEDS)
    def test_a_draw_is_one_word(self, seed):
        source, twister = RandomSource(seed), random.Random(seed)
        assert [source.random() for _ in range(100)] == [
            twister.getrandbits(32) / 2**32 for _ in range(100)]

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("attack", [
        InterceptMeasure(Route.A_TO_B),
        DisturbPauli(Route.B_TO_A, Fixed(1, 0)),
        Passive(),
    ], ids=repr)
    def test_session_takes_its_words(self, attack, fraction):
        # across a chunk boundary
        n = sampling.MC_CHUNK_ROUNDS + 5
        words = 1 + (0.0 < fraction < 1.0)
        for seed in MC_SEEDS:
            source, twister = RandomSource(seed), random.Random(seed)
            run_session(n, fraction, source, attack, (PP, OE))
            twister.getrandbits(32 * words * n)
            assert source._rng.getstate() == twister.getstate()


class TestInterceptIsCoinIZ:
    """Intercept-measure on a route is the coin-iz disturbance there: a
    computational-basis measurement whose record is discarded is the
    dephasing channel, half identity and half sigma_z, which is C_{1,1}.
    So the two agree exactly under every bookkeeping, on both routes."""

    @staticmethod
    def case_detection(attack, oc, ec, comp) -> dict:
        """Detection per (m, n): each Eve branch's per-case value, weighted
        by that branch's share of the case's mass in the walk."""
        per_case = enumerate_exact(attack, oc, ec, comp).per_case
        _exp, leaves = _walk(attack, bookkeeping(oc, ec, comp)[0])
        mass = {}
        for place, _b, branch, _sel, _outcome, leaf_mass in leaves:
            i, j, k, l = ALL_BIT_TUPLES[place]
            case = CaseDescriptor(i ^ k, j ^ l, i ^ k ^ j ^ l, branch)
            mass[case] = mass.get(case, 0) + leaf_mass
        assert mass.keys() == per_case.keys()
        totals = Counter()
        for case, case_mass in mass.items():
            totals[case.m, case.n] += case_mass
        detection = Counter()
        for case, value in per_case.items():
            detection[case.m, case.n] += Fraction(mass[case], totals[case.m, case.n]) * value
        return detection

    @pytest.mark.parametrize("route", list(Route), ids=lambda route: route.value)
    @pytest.mark.parametrize("oc,ec,comp", ALL_COMBOS,
                             ids=lambda value: getattr(value, "value", value))
    def test_equal_on_every_bookkeeping(self, route, oc, ec, comp):
        intercept, coin = InterceptMeasure(route), DisturbPauli(route, CoinIZ())
        assert {case.eve_branch for case in enumerate_exact(intercept, oc, ec, comp).per_case} \
            == {"a", "b"}
        assert {case.eve_branch for case in enumerate_exact(coin, oc, ec, comp).per_case} \
            == {"none"}
        assert enumerate_exact(intercept, oc, ec, comp).average == (
            enumerate_exact(coin, oc, ec, comp).average)
        by_case = self.case_detection(intercept, oc, ec, comp)
        assert len(by_case) == 4
        assert by_case == self.case_detection(coin, oc, ec, comp)
        assert table_expectations(intercept, oc, ec, comp) == (
            table_expectations(coin, oc, ec, comp))

    @pytest.mark.parametrize("route", list(Route), ids=lambda route: route.value)
    def test_equal_message_errors(self, route):
        intercept = message_error_rate(InterceptMeasure(route))
        coin = message_error_rate(DisturbPauli(route, CoinIZ()))
        assert (intercept.alice_to_bob, intercept.bob_to_alice, intercept.per_bit) == (
            coin.alice_to_bob, coin.bob_to_alice, coin.per_bit)


class TestOutcomeTallies:
    """The one rule table, which every engine reads, ``run_round`` included,
    checked against the rules themselves: each of its bytes holds what
    :func:`control_detected` and :func:`message_error` give."""

    @pytest.mark.parametrize("oc,ec,comp", ALL_COMBOS,
                             ids=lambda value: getattr(value, "value", value))
    def test_each_byte_is_the_rules(self, oc, ec, comp):
        oc, ec, comp = bookkeeping(oc, ec, comp)
        rows = _outcome_tallies(oc, ec, comp)
        assert len(rows) == 256
        for place, (i, j, k, l) in enumerate(ALL_BIT_TUPLES):
            config = RoundConfig((k, l), (i, j), Mode.CONTROL, oc, ec, comp)
            for outcome, kl in enumerate(BELL_LABEL_ORDER):
                label = BellLabel(*kl, oc)
                m, n = message_error(config, label)
                # the XOR law, on the operator-encoding label: Bob decodes
                # Alice's bits as outcome xor (k, l), Alice Bob's as
                # outcome xor (i, j), and each misses by (m, n)
                seen = label if oc is OE else label_map(label)
                assert (seen.k ^ k, seen.l ^ l) == (i ^ m, j ^ n)
                assert (seen.k ^ i, seen.l ^ j) == (k ^ m, l ^ n)
                byte = rows[place << 2 | outcome]
                assert byte & 1 == 1
                assert byte >> 1 & 1 == control_detected(config, label)
                assert (byte >> 3 & 1, byte >> 4 & 1) == (m, n)
                # the pair error is m or n, and bits 5-7 are 0
                assert byte >> 2 & 1 == (byte >> 3 | byte >> 4) & 1
                assert byte >> 5 == 0
        # the 192 bytes past the 64 leaves' are 0
        assert rows[64:] == bytes(192)

    @pytest.mark.parametrize("attack", ALL_STRATEGIES, ids=repr)
    def test_both_decodes_miss_alike(self, attack):
        # the table holds one error a message round for both parties; the
        # oracle decodes each party by its own overlap search, and finds
        # the two parties' pair and bit errors equally likely
        errors = oracle_message_errors(attack)
        assert errors["alice_to_bob"] == errors["bob_to_alice"]
        assert errors["alice_bit0"] == errors["bob_bit0"]
        assert errors["alice_bit1"] == errors["bob_bit1"]


class TestRoundLeavesCache:
    def test_comparison_string_shares_the_entry(self, fresh_walk):
        attack = DisturbPauli(Route.A_TO_B, CoinIZ())
        run_session(20, 0.5, RandomSource(1), attack, comparison="converted")
        run_session(20, 0.5, RandomSource(1), attack,
                    comparison=Comparison.CONVERTED)
        assert _round_leaves.cache_info().currsize == 1
        assert _outcome_tallies.cache_info().currsize == 1

    def test_bookkeepings_of_a_walk_share_its_leaves(self, fresh_walk):
        # one key-to-leaf table per strategy and outcome convention; a
        # bookkeeping adds only its tally table
        attack = InterceptMeasure(Route.A_TO_B)
        for oc, ec, comp in ALL_COMBOS:
            run_session(20, 0.5, RandomSource(1), attack, (oc, ec), comp)
        assert _round_leaves.cache_info().currsize == 2
        assert _outcome_tallies.cache_info().currsize == len(ALL_COMBOS) == 8


class TestValidation:
    def test_bad_mode(self):
        with pytest.raises(ValueError):
            RoundConfig((0, 0), (0, 0), mode="spy")

    def test_bad_comparison(self):
        with pytest.raises(ValueError):
            RoundConfig((0, 0), (0, 0), comparison="loose")

    def test_bad_comparison_in_session(self):
        with pytest.raises(ValueError):
            run_session(10, 0.5, RandomSource(0), Passive(), comparison="loose")

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("comparison", list(Comparison))
    def test_values_become_members(self, mode, comparison):
        config = RoundConfig((0, 1), (1, 0), mode.value, "pp", "oe", comparison.value)
        assert config.mode is mode and config.comparison is comparison
        assert config.outcome_convention is PP and config.expectation_convention is OE
        assert config == RoundConfig((0, 1), (1, 0), mode, PP, OE, comparison)
        assert hash(config) == hash(RoundConfig((0, 1), (1, 0), mode, PP, OE, comparison))

    @pytest.mark.parametrize("comparison", list(Comparison))
    def test_session_accepts_comparison_value(self, comparison):
        def session(rule):
            return run_session(200, 0.5, RandomSource(4), InterceptMeasure(),
                               (PP, OE), comparison=rule)

        assert session(comparison.value) == session(comparison)

    @pytest.mark.parametrize("bob_bits,alice_bits", [((True, 0), (0, 0)), ((0, 0), (0, False))],
                             ids=repr)
    def test_bool_bits(self, bob_bits, alice_bits):
        with pytest.raises(TypeError, match="not bool"):
            RoundConfig(bob_bits, alice_bits)

    @pytest.mark.parametrize("config", [None, ((0, 1), (1, 0)), "control"], ids=repr)
    def test_round_rejects_a_config_that_is_not_a_round_config(self, config):
        source = RandomSource(0)
        state = source._rng.getstate()
        with pytest.raises(TypeError,
                           match=f"^config must be a RoundConfig, not {type(config).__name__}$"):
            run_round(config, Passive(), source)
        assert source._rng.getstate() == state

    @pytest.mark.parametrize("conventions", ["oe", ("oe",), (OE, OE, OE), None, OE], ids=repr)
    def test_session_rejects_conventions_that_are_no_pair(self, fresh_walk, conventions):
        source = RandomSource(0)
        state = source._rng.getstate()
        with pytest.raises(TypeError, match="^conventions must be a pair of conventions, not "):
            run_session(5, 0.5, source, InterceptMeasure(), conventions)
        assert source._rng.getstate() == state
        assert _round_leaves.cache_info().currsize == 0
        assert _outcome_tallies.cache_info().currsize == 0

    @pytest.mark.parametrize("fraction", ["0.5", None, 0.5j, [0.5]], ids=repr)
    def test_session_rejects_a_fraction_that_is_no_real_number(self, fresh_walk, fraction):
        source = RandomSource(0)
        state = source._rng.getstate()
        with pytest.raises(TypeError, match=f"^control_fraction must be a real number, "
                                            f"not {type(fraction).__name__}$"):
            run_session(5, fraction, source, InterceptMeasure())
        assert source._rng.getstate() == state
        assert _round_leaves.cache_info().currsize == 0
        assert _outcome_tallies.cache_info().currsize == 0

    def test_session_takes_a_list_pair_and_a_fraction(self):
        def session(fraction, conventions):
            return run_session(300, fraction, RandomSource(5), InterceptMeasure(), conventions)

        assert session(Fraction(1, 2), [PP, OE]) == session(0.5, (PP, OE))
        # a real number that is no bool, numpy's or the standard library's
        for fraction in (Decimal("0.5"), np.float64(0.5), np.float32(0.5)):
            assert session(fraction, (PP, OE)) == session(0.5, (PP, OE))

    @pytest.mark.parametrize("rand", [None, 3, "random"], ids=repr)
    def test_round_rejects_a_value_that_draws_nothing(self, rand):
        with pytest.raises(TypeError, match="rand must be a random source"):
            run_round(RoundConfig((0, 1), (1, 0)), Passive(), rand)

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            RoundConfig((0, 2), (0, 0))

    def test_round_takes_convention_values(self):
        def transcript(oc, ec):
            return run_round(RoundConfig((0, 1), (1, 0), Mode.CONTROL, oc, ec, "strict-paper"),
                             InterceptMeasure(), RandomSource(3))

        assert transcript("pp", "oe") == transcript(PP, OE)
