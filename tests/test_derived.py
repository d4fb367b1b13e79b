"""Values the package derives from checked objects equal, byte for byte, what the public constructors build.

Each site builds its result through ``ProbVector._derived`` or ``PureState._derived``; every test here recomputes
the same values and passes them to the public constructor instead, which checks, clamps and sorts them.
"""

import dataclasses

import numpy as np
import pytest

from entdisc import (
    BellFamily,
    Ensemble,
    ProbVector,
    PureState,
    ValidationError,
    bell_states,
    mix,
    pointer_state,
    preserve_spectrum,
    tensor,
)
from entdisc.discrimination import preserve_cap
from entdisc.states import family_matrices, reduced_spectra
from helpers import random_prob_vector, random_pure_state

LATTICE = [0.5, 0.5 + 1e-12, 0.6, 0.75, 0.8682, 0.9925, 1.0 - 1e-12, 1.0]


def assert_same_vector(derived, checked):
    assert type(derived) is ProbVector
    assert derived.entries.dtype == checked.entries.dtype
    assert derived.entries.tobytes() == checked.entries.tobytes()
    assert repr(derived) == repr(checked)


def assert_same_state(derived, checked):
    assert type(derived) is PureState
    assert (derived.dim_a, derived.dim_b) == (checked.dim_a, checked.dim_b)
    assert all(type(d) is int for d in (derived.dim_a, derived.dim_b))
    assert derived.amplitudes.dtype == checked.amplitudes.dtype
    assert derived.amplitudes.shape == checked.amplitudes.shape
    assert derived.amplitudes.tobytes() == checked.amplitudes.tobytes()


def assert_read_only_and_frozen(obj, field):
    values = getattr(obj, field)
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, values)


def product_state(rng, dim_a, dim_b):
    u, v = rng.standard_normal(dim_a), rng.standard_normal(dim_b)
    if rng.integers(2):
        u, v = np.eye(dim_a)[rng.integers(dim_a)], np.eye(dim_b)[rng.integers(dim_b)]
    return PureState(np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v)).ravel(), dim_a, dim_b)


class TestReducedSpectra:
    @pytest.mark.parametrize("dim_a, dim_b", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 5), (4, 4), (6, 2), (7, 8), (8, 8)])
    def test_squared_singular_values_need_no_sort(self, dim_a, dim_b):
        rng = np.random.default_rng(100 * dim_a + dim_b)
        states = [random_pure_state(rng, dim_a, dim_b) for _ in range(5)]
        states += [product_state(rng, dim_a, dim_b) for _ in range(5)]
        sing = np.linalg.svd(np.array([s.coefficient_matrix() for s in states]), compute_uv=False)
        for derived, row in zip(reduced_spectra(states), sing):
            assert_same_vector(derived, ProbVector(row**2))
            assert_read_only_and_frozen(derived, "entries")


class TestMix:
    def test_both_sides_of_eight_entries(self):
        # oracle: one weighted array per member added into zeros (the array copy mix once kept from 8 entries up),
        # then the public constructor; mix adds on floats at every size
        rng = np.random.default_rng(30)

        def check(trial, dims):
            size = len(dims)
            parts = [random_prob_vector(rng, d) if trial % 3 else ProbVector(np.eye(d)[0]) for d in dims]
            weights = rng.dirichlet(np.ones(size)).tolist()
            if trial % 5 == 0 and size > 1:
                weights = [0.0, *rng.dirichlet(np.ones(size - 1)).tolist()]
            out = np.zeros(max(dims))
            for w, v in zip(weights, parts):
                out[: v.dim] += w * v.entries
            derived = mix(list(zip(weights, parts)))
            assert derived.entries.tobytes() == out.tobytes()
            assert_same_vector(derived, ProbVector(out))
            assert_read_only_and_frozen(derived, "entries")

        for trial in range(400):
            check(trial, rng.integers(1, 33, size=int(rng.integers(1, 5))).tolist())
        for trial, dims in enumerate([[16], [32], [64], [16, 32], [64, 3, 16], [8, 64, 32, 16], [64, 64, 1, 64]] * 15):
            check(trial, dims)

    @pytest.mark.parametrize("dim", [2, 7, 8, 16, 32])
    def test_total_check_survived(self, dim):
        # entries and weights each inside the tolerance, whose product total is not
        v = ProbVector([(0.5 + 4.5e-10) * 2 / dim] * dim)
        with pytest.raises(ValidationError) as derived:
            mix([(0.5 + 4.5e-10, v), (0.5 + 4.5e-10, v)])
        with pytest.raises(ValidationError) as checked:
            ProbVector(2 * (0.5 + 4.5e-10) * v.entries)
        assert str(derived.value) == str(checked.value)
        assert str(derived.value).startswith("probabilities sum to 1.00000000")

    def test_total_check_message_at_two_entries(self):
        v = ProbVector([0.5 + 4.5e-10] * 2)
        with pytest.raises(ValidationError) as exc:
            mix([(0.5 + 4.5e-10, v), (0.5 + 4.5e-10, v)])
        assert str(exc.value) == "probabilities sum to 1.0000000018000001, expected 1 within 1e-09"

    @pytest.mark.parametrize("dim", [1, 20])
    def test_refused_top_entry_keeps_its_message(self, dim):
        v = ProbVector([1.0 + 9e-10] + [0.0] * (dim - 1))
        with pytest.raises(ValidationError) as exc:
            mix([(0.5 + 4.5e-10, v), (0.5 + 4.5e-10, v)])
        assert str(exc.value) == "probability 1.0000000018000001 exceeds 1 beyond tolerance 1e-09"


class TestFamily:
    @pytest.mark.parametrize("a2", LATTICE)
    def test_spectra_and_states(self, a2):
        for c2 in LATTICE:
            family = BellFamily(a2, c2)
            for derived, x in zip(family.spectra(), (a2, a2, c2, c2)):
                assert_same_vector(derived, ProbVector([x, 1.0 - x]))
                assert_read_only_and_frozen(derived, "entries")
            for derived, matrix in zip(family.states(), family_matrices(family.a, family.b, family.c, family.d)):
                assert_same_state(derived, PureState(matrix, 2, 2))
                assert_read_only_and_frozen(derived, "amplitudes")

    def test_integer_parameters_give_float_spectra(self):
        assert_same_vector(BellFamily(1, 1).spectra()[0], ProbVector([1, 0]))

    @pytest.mark.parametrize("probs", [None, [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], [0.0, 0.3, 0.0, 0.7],
                                       [0.4, 0.3, 0.2, 0.1]])
    def test_preserve_spectrum_with_zero_priors(self, probs):
        for a2 in LATTICE:
            for c2 in LATTICE:
                t_a, t_c = (tensor(v, v).entries for v in (ProbVector([a2, 1.0 - a2]), ProbVector([c2, 1.0 - c2])))
                derived = preserve_spectrum(BellFamily(a2, c2), probs)
                assert_same_vector(derived, ProbVector(preserve_cap(t_a, t_c, probs or [0.25] * 4)))
                assert_read_only_and_frozen(derived, "entries")


class TestPointerState:
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_bell_pointers(self, size):
        # oracle: the composite with np.sqrt of the priors, renormalized when off, through the public constructor
        rng = np.random.default_rng(40 + size)
        pointers = bell_states()[:size]
        renormalized = 0
        for trial in range(60):
            dim_a, dim_b = rng.integers(1, 4, size=2).tolist()
            states = [random_pure_state(rng, dim_a, dim_b) for _ in range(size)]
            probs = rng.dirichlet(np.ones(size)).tolist()
            if trial % 4 == 0:
                # every tolerance used up: members at norm^2 1 + 9e-10 and priors summing to 1 + 9e-10
                states = [PureState(s.amplitudes * np.sqrt(1.0 + 9e-10), dim_a, dim_b) for s in states]
                probs = [p * (1.0 + 9e-10) for p in probs]
            ensemble = Ensemble(tuple(zip(probs, states)))
            psi = np.array([s.amplitudes for s in ensemble.states]).reshape(-1, dim_a, 1, dim_b, 1)
            phi = np.array([p.amplitudes for p in pointers]).reshape(-1, 1, 2, 1, 2)
            composite = (psi * phi * np.sqrt(ensemble.probs).reshape(-1, 1, 1, 1, 1)).sum(axis=0)
            matrix = composite.reshape(2 * dim_a, 2 * dim_b)
            norm2 = np.vdot(matrix, matrix).real
            renormalized += abs(norm2 - 1.0) > 1e-9
            checked = PureState.from_matrix(matrix if abs(norm2 - 1.0) <= 1e-9 else matrix / np.sqrt(norm2))
            derived = pointer_state(ensemble, pointers)
            assert_same_state(derived, checked)
            assert_read_only_and_frozen(derived, "amplitudes")
        assert renormalized == 15
