"""Core algebra: closed forms, composition, Bell bases, measurements."""

import copy
import math
import pickle
import re
from itertools import product

import numpy as np
import pytest

from qdialogue.model import (
    BELL_LABEL_ORDER,
    BellLabel,
    Convention,
    Fixed,
    InvariantError,
    PauliCode,
    Phase,
    RandomSource,
    label_map,
    pauli_action_closed_form,
    pauli_compose,
)
from qdialogue.qcore import (
    ALG_TOL,
    TwoQubitState,
    apply_pauli_t,
    bell_decompose,
    bell_state,
    equal_up_to_global_phase,
    measure_bell,
    measure_t_computational,
    pauli_matrix,
)

SQ2 = math.sqrt(2.0)
OE = Convention.OPERATOR_ENCODING
PP = Convention.PARITY_PHASE

ALL_CODES = [PauliCode(a, b) for a in (0, 1) for b in (0, 1)]


def unchecked_state(amp) -> TwoQubitState:
    """A state of these amplitudes built past the norm check, which every
    constructor call makes: a state that no code of the package can build."""
    state = object.__new__(TwoQubitState)
    object.__setattr__(state, "amp", tuple(amp))
    return state


def recompose(coeffs: dict[BellLabel, complex]) -> TwoQubitState:
    """Rebuild a state from its Bell coefficients, the inverse of
    :func:`bell_decompose`."""
    amp = [0j, 0j, 0j, 0j]
    for label, c in coeffs.items():
        b = bell_state(label.convention, label.k, label.l).amp
        for x in range(4):
            amp[x] += c * b[x]
    return TwoQubitState(amp)


def random_states(n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        yield TwoQubitState(v / np.linalg.norm(v))


class TestPauliMatrices:
    def test_known_matrices(self):
        np.testing.assert_array_equal(pauli_matrix(PauliCode(0, 0)), np.eye(2))
        np.testing.assert_array_equal(
            pauli_matrix(PauliCode(0, 1)), [[0, 1], [1, 0]]
        )
        # project sign convention: negative of the textbook sigma_y
        np.testing.assert_array_equal(
            pauli_matrix(PauliCode(1, 0)), [[0, 1j], [-1j, 0]]
        )
        np.testing.assert_array_equal(
            pauli_matrix(PauliCode(1, 1)), [[1, 0], [0, -1]]
        )

    def test_unitary(self):
        for code in ALL_CODES:
            m = pauli_matrix(code)
            np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=0)

    def test_matrix_matches_closed_form_exactly(self):
        # exact equality: all entries live in {0, +-1, +-i}
        for code in ALL_CODES:
            m = pauli_matrix(code)
            for bit in (0, 1):
                phase, r = pauli_action_closed_form(code, bit)
                expect = np.zeros(2, dtype=complex)
                expect[r] = phase.as_complex()
                assert (m[:, bit] == expect).all()


class TestClosedForm:
    @pytest.mark.parametrize(
        "code,bit,phase,result",
        [
            ((0, 0), 1, Phase.PLUS_ONE, 1),
            ((1, 0), 1, Phase.PLUS_I, 0),
            ((1, 0), 0, Phase.MINUS_I, 1),
            ((1, 1), 1, Phase.MINUS_ONE, 1),
            ((0, 1), 0, Phase.PLUS_ONE, 1),
            ((0, 0), 0, Phase.PLUS_ONE, 0),
        ],
    )
    def test_examples(self, code, bit, phase, result):
        assert pauli_action_closed_form(PauliCode(*code), bit) == (phase, result)

    def test_result_bit_rule(self):
        # bit preserved iff a xor b == 0
        for code in ALL_CODES:
            for bit in (0, 1):
                _, r = pauli_action_closed_form(code, bit)
                assert (r == bit) == (code.a ^ code.b == 0)


class TestCompose:
    def test_identity_left(self):
        for code in ALL_CODES:
            out = pauli_compose(PauliCode(0, 0), code)
            assert out.code == code and out.phase is Phase.PLUS_ONE

    def test_involution(self):
        for code in ALL_CODES:
            out = pauli_compose(code, code)
            assert out.code == PauliCode(0, 0)
            assert out.phase is Phase.PLUS_ONE

    def test_example_xz(self):
        out = pauli_compose(PauliCode(0, 1), PauliCode(1, 1))
        assert out.code == PauliCode(1, 0)
        assert out.phase is Phase.PLUS_I

    def test_all_pairs_against_matrix_product(self):
        # exact phase law: M1 @ M2 == phase * M(xor)
        for c1, c2 in product(ALL_CODES, repeat=2):
            out = pauli_compose(c1, c2)
            lhs = pauli_matrix(c1) @ pauli_matrix(c2)
            rhs = out.phase.as_complex() * pauli_matrix(out.code)
            assert (lhs == rhs).all()


class TestBellStates:
    def test_epr_pair(self):
        s = bell_state(OE, 0, 0)
        np.testing.assert_allclose(s.amp, [0, 1 / SQ2, 1 / SQ2, 0], atol=ALG_TOL)

    def test_oe_10(self):
        s = bell_state(OE, 1, 0)
        np.testing.assert_allclose(
            s.amp, [1j / SQ2, 0, 0, -1j / SQ2], atol=ALG_TOL
        )

    def test_pp_01(self):
        s = bell_state(PP, 0, 1)
        np.testing.assert_allclose(s.amp, [0, 1 / SQ2, 1 / SQ2, 0], atol=ALG_TOL)

    @pytest.mark.parametrize("conv", [OE, PP])
    def test_orthonormal(self, conv):
        vs = [bell_state(conv, k, l).as_array() for k, l in BELL_LABEL_ORDER]
        gram = np.array([[np.vdot(a, b) for b in vs] for a in vs])
        assert np.max(np.abs(gram - np.eye(4))) <= ALG_TOL


class TestApplyPauli:
    def test_encode_epr_with_x(self):
        out = apply_pauli_t(bell_state(OE, 0, 0), PauliCode(0, 1))
        np.testing.assert_allclose(out.amp, [1 / SQ2, 0, 0, 1 / SQ2], atol=ALG_TOL)

    def test_identity(self):
        for s in random_states(5, seed=1):
            out = apply_pauli_t(s, PauliCode(0, 0))
            assert out.amp == s.amp

    def test_basis_01_sigma_y(self):
        out = apply_pauli_t(TwoQubitState([0, 1, 0, 0]), PauliCode(1, 0))
        np.testing.assert_allclose(out.amp, [1j, 0, 0, 0], atol=ALG_TOL)

    def test_norm_preserved_randomized(self):
        for n, s in enumerate(random_states(1000, seed=2)):
            out = apply_pauli_t(s, ALL_CODES[n % 4])
            assert abs(out.norm_sq() - 1.0) <= ALG_TOL


class TestDecompose:
    def test_basis_01_parity_phase(self):
        coeffs = bell_decompose(TwoQubitState([0, 1, 0, 0]), PP)
        expect = {(0, 1): 1 / SQ2, (1, 1): 1 / SQ2}
        for label, c in coeffs.items():
            assert abs(c - expect.get(label.bits(), 0)) <= ALG_TOL

    def test_bell_basis_element(self):
        coeffs = bell_decompose(bell_state(OE, 0, 0), OE)
        for label, c in coeffs.items():
            want = 1.0 if label.bits() == (0, 0) else 0.0
            assert abs(c - want) <= ALG_TOL

    def test_basis_00_operator_encoding(self):
        coeffs = bell_decompose(TwoQubitState([1, 0, 0, 0]), OE)
        expect = {(0, 1): 1 / SQ2, (1, 0): -1j / SQ2}
        for label, c in coeffs.items():
            assert abs(c - expect.get(label.bits(), 0)) <= ALG_TOL

    def test_all_mu_nu_parity_phase_structure(self):
        # each |mu nu> splits over exactly (0, mu^nu) and (1, mu^nu)
        for mu, nu in product((0, 1), repeat=2):
            amp = [0] * 4
            amp[2 * mu + nu] = 1
            coeffs = bell_decompose(TwoQubitState(amp), PP)
            for label, c in coeffs.items():
                if label.l == mu ^ nu:
                    want = (1 / SQ2) * ((-1) ** mu if label.k else 1)
                else:
                    want = 0.0
                assert abs(c - want) <= ALG_TOL

    @pytest.mark.parametrize("conv", [OE, PP])
    def test_round_trip(self, conv):
        for s in random_states(50, seed=3):
            coeffs = bell_decompose(s, conv)
            total = sum(abs(c) ** 2 for c in coeffs.values())
            assert abs(total - 1.0) <= ALG_TOL
            back = recompose(coeffs)
            assert max(abs(x - y) for x, y in zip(back.amp, s.amp)) <= ALG_TOL


class TestLabelMap:
    def test_examples(self):
        assert label_map(BellLabel(0, 0, OE)) == BellLabel(0, 1, PP)
        assert label_map(BellLabel(1, 1, OE)) == BellLabel(1, 1, PP)

    def test_involutive(self):
        for conv in (OE, PP):
            for k, l in BELL_LABEL_ORDER:
                label = BellLabel(k, l, conv)
                assert label_map(label_map(label)) == label

    def test_same_ray_full_overlap_table(self):
        for k, l in BELL_LABEL_ORDER:
            label = BellLabel(k, l, OE)
            mapped = label_map(label)
            src = bell_state(OE, k, l).as_array()
            for k2, l2 in BELL_LABEL_ORDER:
                ov = abs(np.vdot(bell_state(PP, k2, l2).as_array(), src))
                want = 1.0 if (k2, l2) == mapped.bits() else 0.0
                assert abs(ov - want) <= ALG_TOL


class TestMeasurement:
    def test_t_measurement_on_epr(self):
        outcomes = set()
        for seed in range(20):
            out, collapsed, p = measure_t_computational(
                bell_state(OE, 0, 0), RandomSource(seed)
            )
            assert abs(p - 0.5) <= ALG_TOL
            want = [0, 1, 0, 0] if out == 1 else [0, 0, 1, 0]
            np.testing.assert_allclose(collapsed.amp, want, atol=ALG_TOL)
            outcomes.add(out)
        assert outcomes == {0, 1}

    def test_t_measurement_on_basis_state(self):
        s = TwoQubitState([0, 1, 0, 0])
        out, collapsed, p = measure_t_computational(s, RandomSource(0))
        assert out == 1 and p == pytest.approx(1.0) and collapsed.amp == s.amp

    def test_t_measurement_on_oe_01(self):
        for seed in range(20):
            out, collapsed, p = measure_t_computational(
                bell_state(OE, 0, 1), RandomSource(seed)
            )
            assert abs(p - 0.5) <= ALG_TOL
            want = [1, 0, 0, 0] if out == 0 else [0, 0, 0, 1]
            np.testing.assert_allclose(collapsed.amp, want, atol=ALG_TOL)

    def test_bell_measurement_deterministic_on_basis_element(self):
        label, p = measure_bell(bell_state(OE, 1, 1), OE, RandomSource(0))
        assert label.bits() == (1, 1) and abs(p - 1.0) <= ALG_TOL

    def test_bell_measurement_basis_01(self):
        seen_pp, seen_oe = set(), set()
        for seed in range(30):
            s = TwoQubitState([0, 1, 0, 0])
            label, p = measure_bell(s, PP, RandomSource(seed))
            assert abs(p - 0.5) <= ALG_TOL
            seen_pp.add(label.bits())
            label, p = measure_bell(s, OE, RandomSource(seed))
            assert abs(p - 0.5) <= ALG_TOL
            seen_oe.add(label.bits())
        assert seen_pp == {(0, 1), (1, 1)}
        assert seen_oe == {(0, 0), (1, 1)}

    def test_bell_measurement_rejects_lost_weight(self):
        # amplitude 2 of the (0, 0) pair dropped: the weights sum to 1/2
        a = bell_state(OE, 0, 0).amp
        dropped = unchecked_state((a[0], a[1], 0j, a[3]))
        for conv, seed in product((OE, PP), range(10)):
            with pytest.raises(InvariantError):
                measure_bell(dropped, conv, RandomSource(seed))

    def test_bell_measurement_rounding_falls_on_last_label(self):
        # weights that rounding leaves just below 1, within the norm check's
        # tolerance, and a draw above them
        scale = 1.0 - 1e-14
        state = TwoQubitState(scale * x for x in bell_state(OE, 1, 0).amp)

        class TopDraw:
            def random(self):
                return 1.0 - 2.0 ** -53

        label, p = measure_bell(state, OE, TopDraw())
        assert label.bits() == (1, 0) and abs(p - 1.0) <= ALG_TOL

    @pytest.mark.parametrize("conv", [OE, PP])
    def test_born_weights_sum_to_one_randomized(self, conv):
        for s in random_states(1000, seed=4):
            total = sum(abs(c) ** 2 for c in bell_decompose(s, conv).values())
            assert abs(total - 1.0) <= ALG_TOL
            a = s.amp
            p_t = (abs(a[0]) ** 2 + abs(a[2]) ** 2) + (abs(a[1]) ** 2 + abs(a[3]) ** 2)
            assert abs(p_t - 1.0) <= ALG_TOL


class TestConventionValues:
    """The Bell functions take a convention as its member or its string
    value; anything else raises the ValueError of ``Convention``."""

    STATE = bell_state(OE, 0, 1)

    @pytest.mark.parametrize("conv", [OE, PP], ids=lambda conv: conv.value)
    def test_value_names_the_member(self, conv):
        for k, l in BELL_LABEL_ORDER:
            assert bell_state(conv.value, k, l) is bell_state(conv, k, l)
        assert bell_decompose(self.STATE, conv.value) == bell_decompose(self.STATE, conv)
        assert measure_bell(self.STATE, conv.value, RandomSource(3)) == (
            measure_bell(self.STATE, conv, RandomSource(3)))

    @pytest.mark.parametrize("bad", ["bogus", "PP", None, 1, ["pp"]], ids=repr)
    def test_rejects_other_values(self, bad):
        message = f"^{re.escape(repr(bad))} is not a valid Convention$"
        with pytest.raises(ValueError, match=message):
            bell_state(bad, 0, 0)
        with pytest.raises(ValueError, match=message):
            bell_decompose(self.STATE, bad)
        with pytest.raises(ValueError, match=message):
            measure_bell(self.STATE, bad, RandomSource(0))


class TestGlobalPhase:
    def test_global_i(self):
        s1 = bell_state(OE, 1, 0)
        s2 = TwoQubitState([1 / SQ2, 0, 0, -1 / SQ2])
        assert equal_up_to_global_phase(s1, s2)

    def test_reflexive(self):
        for s in random_states(20, seed=5):
            assert equal_up_to_global_phase(s, s)

    def test_orthogonal_states_differ(self):
        assert not equal_up_to_global_phase(
            bell_state(OE, 0, 0), bell_state(OE, 0, 1)
        )


class TestRandomSource:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(123), RandomSource(123)
        assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]

    def test_children_reproducible_and_distinct(self):
        root = RandomSource(7)
        c1, c2 = root.child(0), root.child(1)
        again = RandomSource(7).child(0)
        assert c1.seed == again.seed and c1.random() == again.random()
        assert c1.seed != c2.seed

    #: child seeds per parent seed, at indices -1, 0, 1 and 1999, frozen at
    #: the derivation GENERATOR_ID names
    CHILD_SEEDS = {
        0: (997040296996427668, 12426054289685354689,
            17227200041832915037, 10008628102887744597),
        7: (7825412269004710582, 17725994237439495539,
            15537646209016443107, 5728807303212833491),
        2**40 + 3: (8034739248301797521, 7980578700046006412,
                    8247978811280894110, 16342618095496934607),
        2**64 - 1: (12620796993025269960, 11846742035748648892,
                    12939514725974779477, 2137968402039253336),
    }

    @pytest.mark.parametrize("seed", list(CHILD_SEEDS))
    def test_child_seeds_frozen(self, seed):
        source = RandomSource(seed)
        for index, want in zip((-1, 0, 1, 1999), self.CHILD_SEEDS[seed]):
            assert source.child(index).seed == want
            assert source.child_seed(index) == want

    def test_child_stream_frozen(self):
        child = RandomSource(7).child(1999)
        assert (child.random(), child.random()) == (0.28419116814620793,
                                                    0.5357972111087292)

    def test_seed_range(self):
        assert RandomSource(2**64 - 1).seed == 2**64 - 1
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                RandomSource(seed)
        assert RandomSource(np.int64(5)).seed == 5
        # truncating would run one seed while callers echo another
        for seed in (3.7, 3.0, True):
            with pytest.raises(TypeError):
                RandomSource(seed)


class TestArgumentTypes:
    """A value of the wrong type raises a TypeError that names the argument,
    not an AttributeError from inside."""

    @pytest.mark.parametrize("bad", [None, (0, 1), "oe"], ids=repr)
    def test_label_map(self, bad):
        with pytest.raises(TypeError, match="^label must be a BellLabel, not "):
            label_map(bad)

    @pytest.mark.parametrize("code,bit,message", [
        pytest.param(None, 0, "code must be a PauliCode", id="None"),
        pytest.param((0, 1), 0, "code must be a PauliCode", id="(0, 1)"),
        *(pytest.param(PauliCode(0, 1), bit, "basis bit must be an integer", id=f"bit {bit!r}")
          for bit in (True, 1.0, 0.0)),
    ])
    def test_pauli_action_closed_form(self, code, bit, message):
        with pytest.raises(TypeError, match=f"^{message}, not "):
            pauli_action_closed_form(code, bit)

    @pytest.mark.parametrize("bad", [None, bell_state(OE, 0, 0).amp], ids=["None", "amp"])
    def test_measure_bell(self, bad):
        with pytest.raises(TypeError, match="^state must be a TwoQubitState, not "):
            measure_bell(bad, OE, RandomSource(0))
        with pytest.raises(TypeError, match="^state must be a TwoQubitState, not "):
            bell_decompose(bad, OE)

    @pytest.mark.parametrize("state,convention,error", [
        (None, OE, TypeError),
        (bell_state(OE, 0, 0).amp, OE, TypeError),
        (bell_state(OE, 0, 0), "bogus", ValueError),
    ], ids=["None", "amp", "convention"])
    def test_rejected_bell_measurement_draws_nothing(self, state, convention, error):
        source = RandomSource(0)
        kept = source._rng.getstate()
        with pytest.raises(error):
            measure_bell(state, convention, source)
        assert source._rng.getstate() == kept

    @pytest.mark.parametrize("bad", [None, bell_state(OE, 0, 0).amp], ids=["None", "amp"])
    def test_measure_t_computational(self, bad):
        source = RandomSource(0)
        kept = source._rng.getstate()
        with pytest.raises(TypeError, match=f"^state must be a TwoQubitState, "
                                            f"not {type(bad).__name__}$"):
            measure_t_computational(bad, source)
        assert source._rng.getstate() == kept

    @pytest.mark.parametrize("state,code,message", [
        pytest.param(None, PauliCode(0, 1), "state must be a TwoQubitState", id="state None"),
        pytest.param(bell_state(OE, 0, 0).amp, PauliCode(0, 1), "state must be a TwoQubitState",
                     id="state amp"),
        pytest.param(bell_state(OE, 0, 0), None, "code must be a PauliCode", id="code None"),
        pytest.param(bell_state(OE, 0, 0), (0, 1), "code must be a PauliCode", id="code (0, 1)"),
    ])
    def test_apply_pauli_t(self, state, code, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}, not "):
            apply_pauli_t(state, code)

    @pytest.mark.parametrize("amp", ["1000", ["1", "0", "0", "0"], (1, 0, 0, "0")], ids=repr)
    def test_two_qubit_state_amplitudes(self, amp):
        # complex() parses strings, which would build |00>
        with pytest.raises(TypeError, match="^an amplitude must be a number, not str$"):
            TwoQubitState(amp)

    @pytest.mark.parametrize("bad", [None, (0, 1), Fixed(0, 1)], ids=repr)
    def test_pauli_matrix_and_compose(self, bad):
        message = f"^code must be a PauliCode, not {type(bad).__name__}$"
        for call in (lambda: pauli_matrix(bad), lambda: pauli_compose(PauliCode(0, 1), bad),
                     lambda: pauli_compose(bad, PauliCode(0, 1))):
            with pytest.raises(TypeError, match=message):
                call()

    @pytest.mark.parametrize("bad", [None, bell_state(OE, 0, 0).amp], ids=["None", "amp"])
    def test_equal_up_to_global_phase(self, bad):
        state = bell_state(OE, 0, 0)
        for pair in ((bad, state), (state, bad)):
            with pytest.raises(TypeError, match="^state must be a TwoQubitState, not "):
                equal_up_to_global_phase(*pair)

    @pytest.mark.parametrize("k,l,error,message", [
        (2, 0, ValueError, "Bell label bit k must be 0 or 1, got 2"),
        (0, -1, ValueError, "Bell label bit l must be 0 or 1, got -1"),
        (True, 0, TypeError, "Bell label bit k must be an integer, not bool"),
        (1.0, 0, TypeError, "Bell label bit k must be an integer, not float"),
        (0, None, TypeError, "Bell label bit l must be an integer, not NoneType"),
    ], ids=["2", "-1", "True", "1.0", "None"])
    def test_bell_state_bits(self, k, l, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            bell_state("oe", k, l)

    def test_bell_state_takes_an_index(self):
        class Index:
            def __index__(self):
                return 1

        assert bell_state(PP, Index(), 0) is bell_state(PP, 1, 0)


class TestValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvariantError):
            TwoQubitState([1, 1, 0, 0])

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            PauliCode(2, 0)
        with pytest.raises(ValueError):
            BellLabel(0, 3, OE)


class TestStateValue:
    def test_equal_by_amplitudes(self):
        state = bell_state(OE, 0, 1)
        assert state == TwoQubitState(state.amp) and state != state.amp
        assert hash(state) == hash(TwoQubitState(state.amp))
        # the same ray is not the same amplitudes
        assert state != TwoQubitState(tuple(1j * a for a in state.amp))

    def test_copies_are_exact_and_checked(self):
        # amplitudes whose squares sum to 1 only within the tolerance
        state = TwoQubitState((0.6 * (1 - 1e-14), 0j, 0j, -0.8j))
        for twin in (copy.copy(state), copy.deepcopy(state),
                     pickle.loads(pickle.dumps(state))):
            assert type(twin) is TwoQubitState
            assert twin.amp == state.amp
            assert twin == state and hash(twin) == hash(state)
        # copies are rebuilt through the constructor, which checks the norm
        lost = unchecked_state((0.75 + 0.25j, 0j, 0j, -0.5j))
        for copier in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
            with pytest.raises(InvariantError, match="norm"):
                copier(lost)
