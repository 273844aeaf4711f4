"""Value semantics of the package's record classes: repr, equality, hash,
immutability, defaults, copying and the checks their constructors make.

These pin what callers and caches rely on: ``repr(attack)`` seeds
generators, the ``lru_cache`` keys of ``analysis`` and ``protocol`` hash
and compare strategies and labels, and reports compare field by field.
"""

import copy
import gc
import pickle
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest

from qdialogue import analysis
from qdialogue.analysis import (
    CaseDescriptor,
    ClaimsReport,
    DetectionReport,
    MessageErrorReport,
    enumerate_exact,
)
from qdialogue.attacks import AppliedPauli, MeasuredBranch
from qdialogue.exactstate import ALL_BIT_TUPLES, ExactState
from qdialogue.model import (
    BellLabel,
    CoinIZ,
    Comparison,
    Convention,
    DisturbPauli,
    Fixed,
    InterceptMeasure,
    Measure,
    Mode,
    Passive,
    PauliCode,
    Phase,
    PhasedPauli,
    RoundConfig,
    Route,
    UniformAll4,
    label_map,
)
from qdialogue.protocol import RoundTranscript
from qdialogue.qcore import bell_state
from qdialogue.sampling import McEstimate, SessionStats
from test_analysis import ALL_COMBOS, ALL_STRATEGIES

OE = Convention.OPERATOR_ENCODING
PP = Convention.PARITY_PHASE
STATE = bell_state(OE, 0, 0)


def transcript(outcome_k=0, detected=None):
    return RoundTranscript(RoundConfig((0, 1), (1, 0)), STATE, STATE, STATE,
                           STATE, STATE, AppliedPauli(1, 1),
                           BellLabel(outcome_k, 1, OE), 0.5, (1, 0), None, detected)


#: (name, make, repr, field values or None when mutable, an unequal value):
#: ``make`` builds a fresh instance each call
VALUES = [
    ("PauliCode", lambda: PauliCode(1, 0), "PauliCode(a=1, b=0)", (1, 0),
     PauliCode(0, 1)),
    ("PhasedPauli", lambda: PhasedPauli(PauliCode(1, 0), Phase.PLUS_I),
     "PhasedPauli(code=PauliCode(a=1, b=0), phase=<Phase.PLUS_I: 1>)",
     (PauliCode(1, 0), Phase.PLUS_I), PhasedPauli(PauliCode(1, 0), Phase.MINUS_I)),
    ("BellLabel", lambda: BellLabel(0, 1, PP),
     "BellLabel(k=0, l=1, convention=<Convention.PARITY_PHASE: 'pp'>)",
     (0, 1, PP), BellLabel(0, 1, OE)),
    ("Fixed", lambda: Fixed(1, 1), "Fixed(u=1, v=1)", (1, 1), Fixed(1, 0)),
    ("UniformAll4", UniformAll4, "UniformAll4()", (), CoinIZ()),
    ("CoinIZ", CoinIZ, "CoinIZ()", (), UniformAll4()),
    ("Measure", Measure, "Measure()", (), Passive()),
    ("Passive", Passive, "Passive()", (), Measure()),
    ("InterceptMeasure", lambda: InterceptMeasure(Route.A_TO_B),
     "InterceptMeasure(route=<Route.A_TO_B: 'a2b'>)", (Route.A_TO_B,),
     InterceptMeasure()),
    ("DisturbPauli", lambda: DisturbPauli(Route.B_TO_A, Fixed(0, 1)),
     "DisturbPauli(route=<Route.B_TO_A: 'b2a'>, selection=Fixed(u=0, v=1))",
     (Route.B_TO_A, Fixed(0, 1)), DisturbPauli(Route.B_TO_A, CoinIZ())),
    ("MeasuredBranch", lambda: MeasuredBranch("b", 0),
     "MeasuredBranch(branch='b', t_outcome=0)", ("b", 0), MeasuredBranch("a", 0)),
    ("AppliedPauli", lambda: AppliedPauli(0, 1), "AppliedPauli(u=0, v=1)", (0, 1),
     AppliedPauli(1, 1)),
    ("ExactState", lambda: ExactState(((1, 0), (0, 0), (0, 0), (0, -1)), 1),
     "ExactState(z=((1, 0), (0, 0), (0, 0), (0, -1)), half=1)",
     (((1, 0), (0, 0), (0, 0), (0, -1)), 1),
     ExactState(((1, 0), (0, 0), (0, 0), (0, -1)), 3)),
    ("RoundConfig", lambda: RoundConfig((0, 1), (1, 0), "control", PP, OE,
                                        "strict-paper"),
     "RoundConfig(bob_bits=(0, 1), alice_bits=(1, 0), mode=<Mode.CONTROL: 'control'>, "
     "outcome_convention=<Convention.PARITY_PHASE: 'pp'>, "
     "expectation_convention=<Convention.OPERATOR_ENCODING: 'oe'>, "
     "comparison=<Comparison.STRICT_PAPER: 'strict-paper'>)",
     ((0, 1), (1, 0), Mode.CONTROL, PP, OE, Comparison.STRICT_PAPER),
     RoundConfig((0, 1), (1, 0), "control", PP, OE)),
    ("RoundTranscript", transcript,
     f"RoundTranscript(config=RoundConfig(bob_bits=(0, 1), alice_bits=(1, 0), "
     f"mode=<Mode.MESSAGE: 'message'>, "
     f"outcome_convention=<Convention.OPERATOR_ENCODING: 'oe'>, "
     f"expectation_convention=<Convention.OPERATOR_ENCODING: 'oe'>, "
     f"comparison=<Comparison.CONVERTED: 'converted'>), "
     f"after_prepare={STATE!r}, after_bob_encode={STATE!r}, "
     f"after_eve_b2a={STATE!r}, after_alice_encode={STATE!r}, "
     f"after_eve_a2b={STATE!r}, eve_record=AppliedPauli(u=1, v=1), "
     f"bell_outcome=BellLabel(k=0, l=1, convention=<Convention.OPERATOR_ENCODING: 'oe'>), "
     f"bell_probability=0.5, decoded_alice_bits=(1, 0), decoded_bob_bits=None, "
     f"detected=None)",
     None, transcript(outcome_k=1)),
    ("SessionStats", lambda: SessionStats(3, bit_seed=7),
     "SessionStats(n_rounds=3, control_rounds=0, message_rounds=0, detections=0, "
     "alice_pair_errors=0, bob_pair_errors=0, alice_bit_errors=[0, 0], "
     "bob_bit_errors=[0, 0], detection_rate=0.0, survival_probability=1.0, "
     "bit_seed=7, generator_id='mt19937:python-random:single-stream')",
     None, SessionStats(3, bit_seed=8)),
    ("CaseDescriptor", lambda: CaseDescriptor(1, 0, 1, "a"),
     "CaseDescriptor(m=1, n=0, parity=1, eve_branch='a')", (1, 0, 1, "a"),
     CaseDescriptor(1, 0, 1)),
    ("DetectionReport",
     lambda: DetectionReport(Passive(), PP, OE, Comparison.STRICT_PAPER,
                             {CaseDescriptor(0, 0, 0): Fraction(1, 2)},
                             average=Fraction(1, 4)),
     "DetectionReport(attack=Passive(), "
     "outcome_convention=<Convention.PARITY_PHASE: 'pp'>, "
     "expectation_convention=<Convention.OPERATOR_ENCODING: 'oe'>, "
     "comparison=<Comparison.STRICT_PAPER: 'strict-paper'>, "
     "per_case={CaseDescriptor(m=0, n=0, parity=0, eve_branch='none'): Fraction(1, 2)}, "
     "branch_averages={}, average=Fraction(1, 4), per_selection=None)",
     None, DetectionReport(Passive(), PP, OE, Comparison.STRICT_PAPER)),
    ("McEstimate", lambda: McEstimate(0.25, 0.125, 100, 9, "g"),
     "McEstimate(mean=0.25, standard_error=0.125, n=100, seed=9, generator_id='g')",
     (0.25, 0.125, 100, 9, "g"), McEstimate(0.25, 0.125, 100, 10, "g")),
    ("MessageErrorReport",
     lambda: MessageErrorReport(Passive(), Fraction(1, 2), Fraction(0),
                                {"alice_bit0": Fraction(1, 4)}),
     "MessageErrorReport(attack=Passive(), alice_to_bob=Fraction(1, 2), "
     "bob_to_alice=Fraction(0, 1), per_bit={'alice_bit0': Fraction(1, 4)})",
     (Passive(), Fraction(1, 2), Fraction(0), {"alice_bit0": Fraction(1, 4)}),
     MessageErrorReport(Passive(), Fraction(1, 2), Fraction(1, 2), {})),
    ("ClaimsReport",
     lambda: ClaimsReport(Fraction(3, 4), Fraction(1, 2), Fraction(3, 4),
                          Fraction(1, 2), "why"),
     "ClaimsReport(paper_claim=Fraction(3, 4), cai_claim=Fraction(1, 2), "
     "strict_paper_average=Fraction(3, 4), consistent_value=Fraction(1, 2), "
     "explanation='why')",
     (Fraction(3, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1, 2), "why"),
     ClaimsReport(Fraction(3, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1, 2),
                  "other")),
]

#: frozen classes whose fields hold an unhashable dict
UNHASHABLE_FIELDS = {"MessageErrorReport"}
#: mutable classes: assignable and unhashable
MUTABLE = {"RoundTranscript", "SessionStats", "DetectionReport"}
#: frozen classes of a closed set of values built once: equal fields are the
#: same object, hashed by identity
INTERNED = {"CaseDescriptor"}

params = pytest.mark.parametrize("name,make,text,fields,other", VALUES,
                                 ids=[v[0] for v in VALUES])


def test_every_value_class_is_covered():
    assert len({name for name, *_ in VALUES}) == len(VALUES) == 21


@params
def test_repr(name, make, text, fields, other):
    assert repr(make()) == text


@params
def test_equality(name, make, text, fields, other):
    a, b = make(), make()
    if name in INTERNED:
        assert a is b
    else:
        assert a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object() and a != fields


@params
def test_hash_and_immutability(name, make, text, fields, other):
    value = make()
    # the first field's name, from the repr; None when there are no fields
    field = text[text.index("(") + 1:].split("=", 1)[0] if "=" in text else None
    if name in MUTABLE:
        with pytest.raises(TypeError):
            hash(value)
        marker = object()
        setattr(value, field, marker)
        assert getattr(value, field) is marker
        return
    if name in UNHASHABLE_FIELDS:
        with pytest.raises(TypeError):
            hash(value)
    elif name in INTERNED:
        assert hash(value) == object.__hash__(value)
        assert hash(value) == hash(make())
    else:
        assert hash(value) == hash(fields)
        assert hash(value) == hash(make())
    attributes = [field] if field else []
    for attr in attributes + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert value == make()


@params
def test_copy_and_pickle(name, make, text, fields, other):
    value = make()
    hashable = name not in MUTABLE | UNHASHABLE_FIELDS
    if hashable:
        hash(value)  # the hash it keeps is not copied
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == text
        if name in INTERNED:
            assert twin is value
        elif hashable:
            assert hash(twin) == hash(fields)


frozen_params = pytest.mark.parametrize(
    "name,make,text,fields,other", [v for v in VALUES if v[0] not in MUTABLE],
    ids=[v[0] for v in VALUES if v[0] not in MUTABLE])


def count_field_reads(monkeypatch, cls) -> list:
    """Patch ``cls._values`` to record each instance whose fields it reads."""
    reads, values = [], cls._values
    monkeypatch.setattr(cls, "_values",
                        staticmethod(lambda value: reads.append(value) or values(value)))
    return reads


@frozen_params
def test_hash_reads_the_fields_once(monkeypatch, name, make, text, fields, other):
    value = make()
    reads = count_field_reads(monkeypatch, type(value))
    if name in UNHASHABLE_FIELDS:
        for _ in range(2):
            with pytest.raises(TypeError):
                hash(value)
        assert len(reads) == 2 and all(read is value for read in reads)
        return
    if name in INTERNED:
        for _ in range(3):
            assert hash(value) == object.__hash__(value)
        assert hash(make()) == hash(value) and reads == []
        return
    for _ in range(3):
        assert hash(value) == hash(fields)
    assert len(reads) == 1 and reads[0] is value
    assert hash(make()) == hash(value) and len(reads) == 2


@frozen_params
def test_hashing_changes_no_field(name, make, text, fields, other):
    value = make()
    reduced = value.__reduce__()
    try:
        hash(value)
    except TypeError:
        assert name in UNHASHABLE_FIELDS
    assert repr(value) == text
    assert value == make() and make() == value and value != other
    assert value.__reduce__() == reduced == (type(value), fields)


@pytest.mark.parametrize("a,b", [
    (AppliedPauli(0, 1), PauliCode(0, 1)),
    (AppliedPauli(1, 1), Fixed(1, 1)),
    (UniformAll4(), CoinIZ()),
    (Passive(), Measure()),
    (Passive(), UniformAll4()),
])
def test_equal_fields_of_different_classes_are_unequal(a, b):
    assert a != b and b != a
    assert not a == b
    assert len({a, b}) == 2


@pytest.mark.parametrize("member", list(Convention), ids=repr)
def test_convention_hashes_by_identity(member):
    # members are singletons, so a copy is the same lru_cache key
    assert Convention.__hash__ is object.__hash__

    @lru_cache(maxsize=None)
    def key(convention):
        return convention

    key(member)
    for same in (copy.copy(member), copy.deepcopy(member),
                 pickle.loads(pickle.dumps(member))):
        assert same is member
        assert key(same) is member
    assert (key.cache_info().hits, key.cache_info().misses) == (3, 1)


def test_case_descriptor_hashes_by_identity():
    # the twelve descriptors are built once, so a copy is the same lru_cache key
    assert CaseDescriptor.__hash__ is object.__hash__

    @lru_cache(maxsize=None)
    def key(case):
        return case

    case = CaseDescriptor(0, 1, 1, "b")
    key(case)
    for same in (CaseDescriptor(0, 1, 1, "b"), copy.copy(case), copy.deepcopy(case),
                 pickle.loads(pickle.dumps(case))):
        assert same is case
        assert key(same) is case
    assert (key.cache_info().hits, key.cache_info().misses) == (4, 1)


def case_instances() -> list:
    """Every ``CaseDescriptor`` alive in this process."""
    return [value for value in gc.get_objects() if type(value) is CaseDescriptor]


class TestCaseDomain:
    """``CaseDescriptor`` is a closed set: m, n in {0, 1}, parity m xor n and
    an Eve branch of 'a', 'b' or 'none', twelve values built at import.
    Anything else raises and builds nothing."""

    def test_twelve_values(self):
        cases = list(analysis._CASES.values())
        assert len(cases) == len(set(map(id, cases))) == 12
        assert {(c.m, c.n, c.parity, c.eve_branch) for c in cases} == {
            (m, n, m ^ n, branch)
            for m in (0, 1) for n in (0, 1) for branch in ("a", "b", "none")}
        assert all(CaseDescriptor(*c._values(c)) is c for c in cases)
        assert sorted(map(id, case_instances())) == sorted(map(id, cases))

    @pytest.mark.parametrize("args,error,message", [
        ((2, 3, 1), ValueError, "case bit m must be 0 or 1, got 2"),
        ((True, 0, 1), TypeError, "case bit m must be an integer, not bool"),
        ((0.0, 1, 1), TypeError, "case bit m must be an integer, not float"),
        ((0, 1, 0), ValueError, "parity must equal m xor n"),
        ((0, 1, 1, "c"), ValueError, "eve_branch must be 'a', 'b' or 'none', got 'c'"),
    ], ids=["bits-out-of-range", "bool", "float", "parity", "branch"])
    def test_outside_the_set_raises_and_builds_nothing(self, args, error, message):
        before = case_instances()
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            CaseDescriptor(*args)
        assert len(analysis._CASES) == 12
        assert sorted(map(id, case_instances())) == sorted(map(id, before))

    def test_reports_key_the_twelve(self, fresh_walk):
        # cold and warm, over the whole grid with random case orders
        cases = set(map(id, analysis._CASES.values()))
        rng = random.Random(26)
        for _ in range(2):
            for attack in ALL_STRATEGIES:
                for oc, ec, comp in ALL_COMBOS:
                    report = enumerate_exact(attack, oc, ec, comp,
                                             case_order=rng.sample(ALL_BIT_TUPLES, 16))
                    assert set(map(id, report.per_case)) <= cases
        assert sorted(map(id, case_instances())) == sorted(cases)


def test_defaults():
    assert InterceptMeasure() == InterceptMeasure(Route.B_TO_A)
    assert DisturbPauli() == DisturbPauli(Route.A_TO_B, UniformAll4())
    assert CaseDescriptor(0, 1, 1).eve_branch == "none"
    config = RoundConfig((1, 1), (0, 0))
    assert (config.mode, config.outcome_convention, config.expectation_convention,
            config.comparison) == (Mode.MESSAGE, OE, OE, Comparison.CONVERTED)
    report = DetectionReport(Passive(), OE, OE, Comparison.CONVERTED)
    assert (report.per_case, report.branch_averages, report.average,
            report.per_selection) == ({}, {}, Fraction(0), None)
    other = DetectionReport(Passive(), OE, OE, Comparison.CONVERTED)
    assert report.per_case is not other.per_case
    assert report.branch_averages is not other.branch_averages


def test_keyword_construction():
    config = RoundConfig(bob_bits=(1, 0), alice_bits=(0, 1), mode=Mode.CONTROL,
                         outcome_convention=PP, expectation_convention=OE,
                         comparison=Comparison.STRICT_PAPER)
    assert config == RoundConfig((1, 0), (0, 1), Mode.CONTROL, PP, OE,
                                 Comparison.STRICT_PAPER)
    assert ExactState(z=((1, 0),) * 4, half=2) == ExactState(((1, 0),) * 4, 2)
    assert McEstimate(mean=0.5, standard_error=0.0, n=1, seed=0, generator_id="g") \
        == McEstimate(0.5, 0.0, 1, 0, "g")


@pytest.mark.parametrize("convention", list(Convention), ids=repr)
def test_bell_label_stores_the_convention_member(convention):
    label = BellLabel(0, 1, convention.value)
    assert label.convention is convention
    assert label == BellLabel(0, 1, convention)
    assert hash(label) == hash(BellLabel(0, 1, convention))
    assert label_map(label) == label_map(BellLabel(0, 1, convention))


@pytest.mark.parametrize("bad", ["bogus", "PP", None, 1, ["pp"]], ids=repr)
def test_bell_label_rejects_an_unknown_convention(bad):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(bad))} is not a valid Convention$"):
        BellLabel(0, 1, bad)


def test_round_config_coerces_mode_and_comparison():
    config = RoundConfig((0, 0), (0, 0), "control", OE, PP, "strict-paper")
    assert config.mode is Mode.CONTROL
    assert config.comparison is Comparison.STRICT_PAPER
    assert config == RoundConfig((0, 0), (0, 0), Mode.CONTROL, OE, PP,
                                 Comparison.STRICT_PAPER)
    assert hash(config) == hash(RoundConfig((0, 0), (0, 0), Mode.CONTROL, OE, PP,
                                            Comparison.STRICT_PAPER))


def test_round_config_stores_bit_tuples():
    config = RoundConfig([0, 1], iter((1, 0)))
    assert (config.bob_bits, config.alice_bits) == ((0, 1), (1, 0))
    assert type(config.bob_bits) is type(config.alice_bits) is tuple
    assert config == RoundConfig((0, 1), (1, 0))
    assert hash(config) == hash(RoundConfig((0, 1), (1, 0)))


def test_session_stats_lists_are_per_instance_and_deep_copied():
    a, b = SessionStats(1), SessionStats(1)
    a.alice_bit_errors[0] += 1
    a.bob_bit_errors[1] += 1
    assert b.alice_bit_errors == b.bob_bit_errors == [0, 0]
    snapshot = copy.deepcopy(a)
    a.alice_bit_errors[1] += 5
    assert snapshot.alice_bit_errors == [1, 0]
    assert snapshot.bob_bit_errors == [0, 1]


@pytest.mark.parametrize("build", [
    lambda: PauliCode(2, 0),
    lambda: PauliCode(0, -1),
    lambda: BellLabel(0, 2, OE),
    lambda: BellLabel(3, 0, PP),
    lambda: Fixed(0, 2),
    lambda: Fixed(2, 1),
    lambda: CaseDescriptor(0, 1, 0),
    lambda: CaseDescriptor(1, 1, 1, "a"),
    lambda: RoundConfig((0, 2), (0, 0)),
    lambda: RoundConfig((0, 0), (1, 2)),
    lambda: RoundConfig((0, 1, 1), (0, 0)),
    lambda: RoundConfig((0,), (1, 0)),
    lambda: RoundConfig((0, 0), (0, 0), "sometimes"),
    lambda: RoundConfig((0, 0), (0, 0), comparison="lenient"),
    lambda: RoundConfig((0, 0), (0, 0), outcome_convention="bogus"),
    lambda: RoundConfig((0, 0), (0, 0), expectation_convention="bogus"),
], ids=["pauli-a", "pauli-b", "bell-l", "bell-k", "fixed-v", "fixed-u",
        "case-parity", "case-parity-branch", "config-bob", "config-alice",
        "config-bob-three-bits", "config-bob-one-bit",
        "config-mode", "config-comparison", "config-outcome", "config-expectation"])
def test_constructor_checks(build):
    with pytest.raises(ValueError):
        build()


#: each value that holds bits, built with one bit given as ``bit``
BIT_HOLDERS = {
    "pauli-a": lambda bit: PauliCode(bit, 0),
    "pauli-b": lambda bit: PauliCode(1, bit),
    "bell-k": lambda bit: BellLabel(bit, 0, OE),
    "bell-l": lambda bit: BellLabel(0, bit, PP),
    "fixed-u": lambda bit: Fixed(bit, 1),
    "fixed-v": lambda bit: Fixed(0, bit),
    "config-bob": lambda bit: RoundConfig((bit, 0), (0, 1)),
    "config-alice": lambda bit: RoundConfig((0, 0), (1, bit)),
}


class TestBits:
    """Every value that holds bits takes them through one check: a bool, a
    float or any other non-integer raises TypeError (an integer other than 0
    and 1 raises ValueError, see ``test_constructor_checks``), and what is
    stored is the int."""

    @pytest.mark.parametrize("bit", [True, False, 1.0, 0.0, "1", None], ids=repr)
    @pytest.mark.parametrize("build", BIT_HOLDERS.values(), ids=BIT_HOLDERS)
    def test_a_non_integer_raises_type_error(self, build, bit):
        with pytest.raises(TypeError, match=f"must be an integer, not {type(bit).__name__}"):
            build(bit)

    def test_stores_the_int(self):
        class Index:
            def __index__(self):
                return 1

        assert type(PauliCode(Index(), 0).a) is int
        assert type(Fixed(0, Index()).v) is int
        assert RoundConfig((Index(), 0), (0, Index())) == RoundConfig((1, 0), (0, 1))
