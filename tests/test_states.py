import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from entdisc import (
    BellFamily,
    Ensemble,
    ProbVector,
    PureState,
    ValidationError,
    bell_states,
    binary_entropy,
    distinguishability_bound,
    entropy_bits,
    geometric_measure,
    global_robustness,
    majorizes,
    reduced_spectrum,
    relative_entropy_ent,
    schmidt,
)
from entdisc.states import BELL_MATRICES
from helpers import random_pure_state, random_unitary, rdm_spectrum

BELL = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0), 2, 2)
PRODUCT = PureState(np.array([0.0, 1.0, 0.0, 0.0]), 2, 2)  # |01>
LOPSIDED = PureState(np.array([0.8, 0.0, 0.0, 0.6]), 2, 2)  # probs (0.64, 0.36)


class TestPureState:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 0.0, 0.0]), 2, 2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            PureState(np.array([1.0, 1.0, 0.0, 0.0]), 2, 2)

    def test_rejects_non_finite_amplitudes(self):
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            with pytest.raises(ValidationError, match="finite"):
                PureState(np.array([bad, 0.0, 0.0, 1.0]), 2, 2)

    def test_overflowing_norm_is_named_as_the_norm(self):
        # finite amplitudes whose squares overflow used to be called non-finite
        with pytest.raises(ValidationError, match=r"^state norm\^2 is inf, expected 1 within"):
            PureState(np.array([1e200, 0.0, 0.0, 0.0]), 2, 2)

    @pytest.mark.parametrize(
        "amps, dims, matrix",
        [
            (["1", "0", "0", "0"], (2, 2), [["1", "0"], ["0", "0"]]),
            ([b"1", b"0", b"0", b"0"], (2, 2), [[b"1", b"0"], [b"0", b"0"]]),
            ([True, False, False, False], (2, 2), [[True, False], [False, False]]),
            ([True, 0, 0, 0], (2, 2), [[True, 0], [0, 0]]),
            (np.array([1, 0, 0, 0], dtype=bool), (2, 2), np.array([[1, 0], [0, 0]], dtype=bool)),
            (np.zeros(4, "m8"), (2, 2), np.zeros((2, 2), "m8")),
            (np.zeros(4, "M8[s]"), (2, 2), np.zeros((2, 2), "M8[s]")),
            ("abc", (1, 3), [list("abc")]),
            ([[1, 0], [0]], (2, 2), [[1, 0], [0]]),
            ([object()], (1, 1), [[object()]]),
            ([None, 1, 0, 0], (2, 2), [[None, 1], [0, 0]]),
        ],
    )
    def test_rejects_non_number_amplitudes(self, amps, dims, matrix):
        # strings and bytes were parsed, and bools and times counted, into |00>; "abc", ragged lists and objects
        # escaped as raw ValueError or TypeError, and None was called non-finite. Each case's first entry (an
        # array's scalar type, or the text itself) is the one the refusal names.
        first = amps.dtype.type if isinstance(amps, np.ndarray) else type(amps[0] if isinstance(amps, list) else amps)
        reason = f"^state amplitudes must be numbers, got <{first.__name__}>$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (lambda: PureState(amps, *dims), lambda: PureState.from_matrix(matrix)):
                with pytest.raises(ValidationError, match=reason):
                    build()

    def test_accepts_numbers(self):
        # numpy and Python numbers stay scalars, and int, nested and complex lists stay amplitudes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scalar in (np.float16(0.9), np.int64(1), 1):
                family = BellFamily(scalar, scalar)
                assert family.a == family.c == math.sqrt(scalar)
                assert binary_entropy(scalar) == binary_entropy(float(scalar))  # a float16 p gave a float16 entropy
                assert majorizes(reduced_spectrum(BELL), reduced_spectrum(PRODUCT), scalar)
            # a float16 tolerance rounded 0.7 + tol up to 0.7002 and passed this pair
            assert not majorizes(ProbVector([0.70001, 0.29999]), ProbVector([0.7, 0.3]), np.float16(1e-9))
            for amps in ([0, 1, 0, 0], [[0, 1], [0, 0]], [0, 1 + 0j, 0, 0]):
                assert PureState(amps, 2, 2).amplitudes.tolist() == [0, 1, 0, 0]
            assert PureState.from_matrix([[0, 1j], [0, 0]]).amplitudes.tolist() == [0, 1j, 0, 0]

    @pytest.mark.parametrize("dims", [(2.0, 2), (2, 2.9), (True, 4), ("2", 2), (0, 4), (np.float64(2.0), 2),
                                      (np.timedelta64(2), 2)])
    def test_rejects_non_integer_dimensions(self, dims):
        # floats and bools used to construct and then fail with a raw
        # TypeError in coefficient_matrix()
        with pytest.raises(ValidationError, match="positive integers"):
            PureState(np.array([1.0, 0.0, 0.0, 0.0]), *dims)

    def test_accepts_numpy_integer_dimensions(self):
        assert PureState(np.array([1.0, 0.0, 0.0, 0.0]), np.int64(2), np.int32(2)).coefficient_matrix().shape == (2, 2)

    def test_from_matrix_rejects_flat_array(self):
        with pytest.raises(ValidationError, match="two-dimensional"):
            PureState.from_matrix(np.array([1.0, 0.0, 0.0, 0.0]))

    def test_matrix_round_trip(self):
        state = random_pure_state(np.random.default_rng(0), 3, 4)
        again = PureState.from_matrix(state.coefficient_matrix())
        assert np.allclose(again.amplitudes, state.amplitudes)
        assert (again.dim_a, again.dim_b) == (3, 4)

    def test_overlap(self):
        assert BELL.overlap(BELL) == pytest.approx(1.0)
        assert abs(BELL.overlap(PRODUCT)) == pytest.approx(0.0, abs=1e-12)

    def test_overlap_dimension_mismatch(self):
        other = random_pure_state(np.random.default_rng(1), 4, 1)
        with pytest.raises(ValidationError):
            BELL.overlap(other)


class TestSchmidt:
    def test_bell_state(self):
        assert np.allclose(schmidt(BELL).probs.entries, [0.5, 0.5])

    def test_product_state(self):
        assert np.allclose(schmidt(PRODUCT).probs.entries, [1.0, 0.0])

    def test_lopsided_state(self):
        # reduced density matrix is diag(0.64, 0.36) by hand
        assert np.allclose(schmidt(LOPSIDED).probs.entries, [0.64, 0.36])

    def test_reconstruction_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            dim_a, dim_b = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            state = random_pure_state(rng, dim_a, dim_b)
            rebuilt = schmidt(state).reconstruct()
            assert np.linalg.norm(rebuilt.amplitudes - state.amplitudes) < 1e-8

    def test_basis_vectors_orthonormal(self):
        state = random_pure_state(np.random.default_rng(3), 3, 3)
        dec = schmidt(state)
        gram_a = dec.basis_a @ dec.basis_a.conj().T
        gram_b = dec.basis_b @ dec.basis_b.conj().T
        assert np.allclose(gram_a, np.eye(gram_a.shape[0]), atol=1e-12)
        assert np.allclose(gram_b, np.eye(gram_b.shape[0]), atol=1e-12)


class TestReducedSpectrum:
    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            dim_a, dim_b = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            state = random_pure_state(rng, dim_a, dim_b)
            lam = reduced_spectrum(state).entries
            oracle = rdm_spectrum(state)[: lam.size]
            assert np.allclose(lam, oracle, atol=1e-12)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            state = random_pure_state(rng, 3, 3)
            u = random_unitary(rng, 3)
            v = random_unitary(rng, 3)
            rotated = PureState.from_matrix(u @ state.coefficient_matrix() @ v.T)
            assert np.allclose(
                reduced_spectrum(state).entries, reduced_spectrum(rotated).entries, atol=1e-12
            )

    def test_dimension_is_smaller_side(self):
        state = random_pure_state(np.random.default_rng(6), 2, 5)
        assert reduced_spectrum(state).dim == 2


def count_svd_calls(monkeypatch) -> list[bool]:
    """Wrap np.linalg.svd; the returned list gets each call's compute_uv."""
    calls = []

    def svd(*args, _original=np.linalg.svd, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return _original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    return calls


def twin(state: PureState) -> PureState:
    return PureState(state.amplitudes, state.dim_a, state.dim_b)


class TestStoredSpectrum:
    """A state computes its reduced spectrum once; results do not depend on call order."""

    def test_same_vector_on_every_call(self, monkeypatch):
        rng = np.random.default_rng(40)
        calls = count_svd_calls(monkeypatch)
        for dim_a, dim_b in [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]:
            for _ in range(20):
                state = random_pure_state(rng, dim_a, dim_b)
                lam = reduced_spectrum(state)
                assert reduced_spectrum(state) is lam
                assert np.allclose(lam.entries, rdm_spectrum(state)[: lam.dim], rtol=0.0, atol=1e-12)
        assert calls == [False] * 120

    def test_bound_of_four_members_takes_one_svd(self, monkeypatch):
        # each of the three measures used to take its own SVD: 12 calls, then one per member: 4
        rng = np.random.default_rng(41)
        states = [random_pure_state(rng, 2, 2) for _ in range(4)]
        calls = count_svd_calls(monkeypatch)
        first = distinguishability_bound(Ensemble.equal_priors(states))
        assert calls == [False]
        assert distinguishability_bound(Ensemble.equal_priors(states)) == first
        assert calls == [False]

    def test_stacked_spectra_match_per_member_svds(self):
        # oracle: each member's own np.linalg.svd, squared, and the bound over twins whose spectra were
        # stored one state at a time; some members' spectra are stored before the bound's stacked SVD
        rng = np.random.default_rng(44)
        for trial in range(200):
            size = 1 + trial % 4
            dim_a, dim_b = rng.integers(1, 5, size=2).tolist()
            states = [random_pure_state(rng, dim_a, dim_b) for _ in range(size)]
            for state in states[: trial % 3]:
                reduced_spectrum(state)
            stacked = distinguishability_bound(Ensemble.equal_priors(states))
            twins = [twin(s) for s in states]
            for state, other in zip(states, twins):
                squares = np.linalg.svd(other.coefficient_matrix(), compute_uv=False) ** 2
                assert reduced_spectrum(state).entries.tobytes() == np.sort(squares)[::-1].tobytes()
                reduced_spectrum(other)
            one_by_one = distinguishability_bound(Ensemble.equal_priors(twins))
            for field in ("n_robustness", "n_rel_entropy", "n_geometric"):
                assert getattr(stacked, field).hex() == getattr(one_by_one, field).hex(), field

    def test_results_do_not_depend_on_call_order(self):
        rng = np.random.default_rng(42)
        def entropy_of(state):
            return entropy_bits(reduced_spectrum(state))

        measures = (entropy_of, global_robustness, relative_entropy_ent, geometric_measure)
        for dim_a, dim_b in [(1, 2), (2, 2), (2, 3), (3, 3)]:
            for _ in range(25):
                warm = [random_pure_state(rng, dim_a, dim_b) for _ in range(int(rng.integers(1, 5)))]
                for state in warm:
                    geometric_measure(state)
                for state in warm:
                    for measure in measures:
                        assert measure(state).hex() == measure(twin(state)).hex(), measure.__name__
                warm_bound = distinguishability_bound(Ensemble.equal_priors(warm))
                cold_bound = distinguishability_bound(Ensemble.equal_priors([twin(s) for s in warm]))
                for field in ("n_robustness", "n_rel_entropy", "n_geometric"):
                    assert getattr(warm_bound, field).hex() == getattr(cold_bound, field).hex(), field

    def test_schmidt_neither_fills_nor_reads_it(self, monkeypatch):
        state = random_pure_state(np.random.default_rng(43), 3, 3)
        calls = count_svd_calls(monkeypatch)
        schmidt(state)
        reduced_spectrum(state)
        assert calls == [True, False]
        probs = schmidt(state).probs.entries
        assert calls == [True, False, True]
        assert [p.hex() for p in probs] == [p.hex() for p in schmidt(twin(state)).probs.entries]


class TestBellFamily:
    @pytest.mark.parametrize("a2, c2, name", [(math.nan, 0.7, "a2"), (0.4, 0.7, "a2"), (1.1, 0.7, "a2"),
                                              (0.8, math.nan, "c2"), (0.8, 0.49, "c2"), (0.8, 1.0 + 1e-12, "c2")])
    def test_rejects_squares_outside_range(self, a2, c2, name):
        # the one range check, with from_squared's message; NaN fails it too
        for build in (BellFamily, BellFamily.from_squared):
            with pytest.raises(ValidationError, match=rf"^{name}=.* outside \[0\.5, 1\]$"):
                build(a2, c2)

    @pytest.mark.parametrize("a2, c2", [("0.7", 0.7), (0.8, None), (Decimal("0.7"), 0.7),
                                        (True, 0.7), (0.7, np.True_), (1.0, False), (np.False_, 1.0),
                                        (np.complex128(0.9), 0.8), (0.9, np.complex128(0.9 + 0.4j)),
                                        (Fraction(9, 10), Fraction(4, 5)), (np.array(0.9), 0.8),
                                        pytest.param(10**20, 0.7, id="10**20-0.7"),
                                        pytest.param(0.7, 10**400, id="0.7-10**400"),
                                        pytest.param(10**5000, 0.7, id="10**5000-0.7")])
    def test_rejects_non_numbers(self, a2, c2):
        # a string or None failed the range comparison, and a Decimal 1 - a2, with a TypeError; a bool passed the
        # range check as 1 (or failed it as 0 with the range message); a numpy complex was built from its real part
        # with a ComplexWarning, and a Fraction or a 0-d array was stored as given
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (BellFamily, BellFamily.from_squared):
                with pytest.raises(ValidationError, match=r"^a2=.* and c2=.* must be numbers$"):
                    build(a2, c2)

    def test_maximally_entangled_case_gives_bell_states(self):
        family = BellFamily(0.5, 0.5).states()
        for got, want in zip(family, bell_states()):
            assert np.allclose(got.amplitudes, want.amplitudes)

    def test_product_case(self):
        family = BellFamily(1.0, 1.0).states()
        expected = [
            [1.0, 0.0, 0.0, 0.0],   # |00>
            [0.0, 0.0, 0.0, -1.0],  # -|11>
            [0.0, 1.0, 0.0, 0.0],   # |01>
            [0.0, 0.0, -1.0, 0.0],  # -|10>
        ]
        for got, want in zip(family, expected):
            assert np.allclose(got.amplitudes, want)

    @pytest.mark.parametrize("a2, c2", [(0.5, 0.5), (0.8, 0.7), (1.0, 0.6), (0.93, 1.0), (1.0, 1.0)])
    def test_amplitudes_equal_literal_lists(self, a2, c2):
        # the shared coefficient matrices give, bit for bit, the amplitudes
        # the members and Bell states were once written out as
        fam = BellFamily.from_squared(a2, c2)
        a, b, c, d = fam.a, fam.b, fam.c, fam.d
        r = 1.0 / np.sqrt(2.0)
        literal = {
            "family": [[a, 0.0, 0.0, b], [b, 0.0, 0.0, -a], [0.0, c, d, 0.0], [0.0, d, -c, 0.0]],
            "bell": [[r, 0.0, 0.0, r], [r, 0.0, 0.0, -r], [0.0, r, r, 0.0], [0.0, r, -r, 0.0]],
        }
        for key, states in (("family", fam.states()), ("bell", bell_states())):
            assert len(states) == 4
            for got, want in zip(states, literal[key]):
                assert (got.dim_a, got.dim_b) == (2, 2)
                assert got.amplitudes.tobytes() == np.array(want, dtype=complex).tobytes()

    def test_pairwise_orthogonality(self):
        for a2, c2 in [(0.5, 0.5), (0.7, 0.9), (1.0, 0.6), (0.93, 1.0)]:
            family = BellFamily(a2, c2).states()
            for i in range(4):
                for j in range(i + 1, 4):
                    assert abs(family[i].overlap(family[j])) < 1e-12

    def test_domain_validation(self):
        for a2, c2 in [(0.4, 0.6), (0.6, 1.1), (-0.1, 0.7)]:
            with pytest.raises(ValidationError):
                BellFamily(a2, c2).states()

    def test_member_spectra(self):
        fam = BellFamily.from_squared(0.8, 0.65)
        spectra = fam.spectra()
        assert np.allclose(spectra[0].entries, [0.8, 0.2])
        assert np.allclose(spectra[2].entries, [0.65, 0.35])
        for member, spec in zip(fam.states(), spectra):
            assert np.allclose(reduced_spectrum(member).entries, spec.entries, atol=1e-12)


class TestBellStates:
    def test_new_list_over_shared_states(self, monkeypatch):
        first = bell_states()
        built = []
        original = PureState.__post_init__

        def post_init(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(PureState, "__post_init__", post_init)
        second = bell_states()
        assert second is not first
        first.clear()
        third = bell_states()
        assert built == []
        assert len(second) == len(third) == 4
        assert all(a is b for a, b in zip(second, third))
        for state, matrix in zip(third, BELL_MATRICES):
            assert np.array_equal(state.coefficient_matrix(), matrix)
            assert not state.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                state.amplitudes[0] = 0.0


class TestMeasures:
    def test_entanglement_entropy(self):
        assert entropy_bits(reduced_spectrum(BELL)) == pytest.approx(1.0, abs=1e-12)
        assert entropy_bits(reduced_spectrum(PRODUCT)) == pytest.approx(0.0, abs=1e-12)
        assert entropy_bits(reduced_spectrum(LOPSIDED)) == pytest.approx(0.942683, abs=1e-6)

    def test_global_robustness(self):
        assert global_robustness(BELL) == pytest.approx(1.0, abs=1e-9)
        assert global_robustness(PRODUCT) == pytest.approx(0.0, abs=1e-9)
        assert global_robustness(LOPSIDED) == pytest.approx(0.96, abs=1e-9)

    def test_relative_entropy_matches_entropy(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            state = random_pure_state(rng, 2, 2)
            assert relative_entropy_ent(state) == entropy_bits(reduced_spectrum(state))

    def test_geometric_measure(self):
        assert geometric_measure(BELL) == pytest.approx(1.0, abs=1e-9)
        assert geometric_measure(PRODUCT) == pytest.approx(0.0, abs=1e-9)
        assert geometric_measure(LOPSIDED) == pytest.approx(0.643856, abs=1e-6)

    def test_measure_chain_on_random_states(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            state = random_pure_state(rng, 2, 2)
            assert 1.0 + global_robustness(state) >= 2.0 ** relative_entropy_ent(state) - 1e-9
            assert 2.0 ** relative_entropy_ent(state) >= 2.0 ** geometric_measure(state) - 1e-9

    def test_two_qubit_entropy_at_most_one(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            assert entropy_bits(reduced_spectrum(random_pure_state(rng, 2, 2))) <= 1.0 + 1e-12


class TestEnsemble:
    def test_validates_probability_sum(self):
        with pytest.raises(ValidationError):
            Ensemble(((0.7, BELL), (0.7, PRODUCT)))

    def test_validates_negative_probability(self):
        with pytest.raises(ValidationError):
            Ensemble(((1.5, BELL), (-0.5, PRODUCT)))

    def test_validates_non_finite_probability(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError):
                Ensemble(((bad, BELL), (0.5, PRODUCT)))
            with pytest.raises(ValidationError):
                Ensemble(((1.0, BELL), (bad, PRODUCT)))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="at least one member"):
            Ensemble(())

    def test_validates_common_dimensions(self):
        odd = random_pure_state(np.random.default_rng(17), 4, 1)
        with pytest.raises(ValidationError):
            Ensemble(((0.5, BELL), (0.5, odd)))

    def test_rejects_malformed_members(self):
        with pytest.raises(ValidationError, match="member 1 must be a"):
            Ensemble(((0.5, BELL), (0.5, "x")))
        with pytest.raises(ValidationError, match="member 0 must be a"):
            Ensemble((1.0,))

    def test_equal_priors(self):
        ens = Ensemble.equal_priors(bell_states())
        assert ens.probs == [0.25] * 4
        assert (ens.dim_a, ens.dim_b) == (2, 2)


class TestDistinguishabilityBound:
    def test_four_bell_states(self):
        bound = distinguishability_bound(Ensemble.equal_priors(bell_states()))
        assert bound.n_robustness == pytest.approx(2.0, abs=1e-9)
        assert bound.n_rel_entropy == pytest.approx(2.0, abs=1e-9)
        assert bound.n_geometric == pytest.approx(2.0, abs=1e-9)

    def test_four_product_states(self):
        bound = distinguishability_bound(Ensemble.equal_priors(BellFamily(1.0, 1.0).states()))
        assert bound.n_robustness == pytest.approx(4.0, abs=1e-9)
        assert bound.n_rel_entropy == pytest.approx(4.0, abs=1e-9)
        assert bound.n_geometric == pytest.approx(4.0, abs=1e-9)

    def test_bound_ordering(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            states = [random_pure_state(rng, 2, 2) for _ in range(3)]
            bound = distinguishability_bound(Ensemble.equal_priors(states))
            assert bound.n_robustness <= bound.n_rel_entropy + 1e-9
            assert bound.n_rel_entropy <= bound.n_geometric + 1e-9
