import itertools
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from entdisc import (
    DEFAULT_TOL,
    BellFamily,
    Ensemble,
    ProbVector,
    PureState,
    ValidationError,
    assisted_alpha2_max,
    bell_states,
    binary_entropy,
    closed_form_lhs,
    conjugation_probe,
    ensemble_discrimination_feasible,
    entropy_bits,
    locc_ensemble_feasible,
    majorizes,
    mix,
    partial_inner_product,
    perfect_discrimination_feasible,
    pointer_state,
    preserve_cost,
    preserve_spectrum,
    reduced_spectrum,
    tensor,
    three_state_feasible,
)
from entdisc.cli import load_ensemble_file
from entdisc.discrimination import alpha2_max_from_lambda, family_lambda_max, preserve_cap
from helpers import (
    alpha2_max_scan,
    entropy_direct,
    family_member_matrices,
    loop_lambda_max,
    loop_pointer_spectrum,
    random_pure_state,
    random_unitary,
    rdm_spectrum,
)


def family_pointer_state(family: BellFamily, probs=None) -> PureState:
    probs = probs if probs is not None else (0.25,) * 4
    return pointer_state(Ensemble(tuple(zip(probs, family.states()))), bell_states())


class TestPointerState:
    @pytest.mark.parametrize("dim_d", [2, 3], ids=["2x2", "2x3"])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_is_weighted_regrouped_sum(self, size, dim_d):
        # oracle: sum_i sqrt(p_i) psi_i (x) phi_i regrouped by einsum, with
        # orthonormal non-Bell pointers from the columns of a QR
        rng = np.random.default_rng(10 * size + dim_d)
        states = [random_pure_state(rng, 2, 2) for _ in range(size)]
        probs = rng.dirichlet(np.ones(size)).tolist()
        columns = random_unitary(rng, 2 * dim_d)[:, :size].T
        joint = pointer_state(Ensemble(tuple(zip(probs, states))), [PureState(c, 2, dim_d) for c in columns])
        expected = sum(
            np.sqrt(p) * np.einsum("ab,cd->acbd", s.amplitudes.reshape(2, 2), c.reshape(2, dim_d))
            for p, s, c in zip(probs, states, columns)
        )
        assert (joint.dim_a, joint.dim_b) == (4, 2 * dim_d)
        assert np.allclose(joint.coefficient_matrix(), expected.reshape(4, 2 * dim_d), rtol=0.0, atol=1e-12)

    def test_amplitude_bits_match_a_member_order_sum(self):
        # oracle: np.kron(psi_i, phi_i) * sqrt(p_i), the kron's rows (a, c) and columns (b, d) being the AC:BD
        # cut, added member by member in order; members of 1x1 to 4x4 against Bell and random pointers
        rng = np.random.default_rng(14)
        for trial in range(300):
            size = 1 + trial % 4
            dim_a, dim_b = rng.integers(1, 5, size=2).tolist()
            states = [random_pure_state(rng, dim_a, dim_b) for _ in range(size)]
            probs = rng.dirichlet(np.ones(size)).tolist()
            if trial % 2:
                pointers = bell_states()[:size]
            else:
                dim_c, dim_d = (2, 2) if size > 2 else (1, 2)
                pointers = [PureState(c, dim_c, dim_d) for c in random_unitary(rng, dim_c * dim_d)[:, :size].T]
            expected = None
            for p, psi, phi in zip(probs, states, pointers):
                term = np.kron(psi.coefficient_matrix(), phi.coefficient_matrix()) * math.sqrt(p)
                expected = term if expected is None else expected + term
            joint = pointer_state(Ensemble(tuple(zip(probs, states))), pointers)
            assert np.array_equal(joint.coefficient_matrix(), expected)

    def test_four_member_top_eigenvalue_closed_form(self):
        for a2, c2 in [(0.5, 0.5), (0.8, 0.7), (1.0, 1.0), (0.67, 0.99)]:
            family = BellFamily.from_squared(a2, c2)
            joint = family_pointer_state(family)
            lam_max = float(rdm_spectrum(joint)[0])
            assert lam_max == pytest.approx(closed_form_lhs(family), abs=1e-12)

    def test_closed_form_agrees_with_spectral_on_grid(self):
        axis = np.linspace(0.5, 1.0, 20)
        for a2 in axis:
            for c2 in axis:
                family = BellFamily.from_squared(a2, c2)
                lam = reduced_spectrum(family_pointer_state(family))
                assert abs(lam.entries[0] - closed_form_lhs(family)) < 1e-9

    def test_all_maximally_entangled_gives_pure_point_spectrum(self):
        joint = family_pointer_state(BellFamily.from_squared(0.5, 0.5))
        assert np.allclose(reduced_spectrum(joint).entries, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_all_product_gives_half(self):
        joint = family_pointer_state(BellFamily.from_squared(1.0, 1.0))
        assert reduced_spectrum(joint).entries[0] == pytest.approx(0.5, abs=1e-12)

    def test_three_member_spectrum_against_dense_oracle(self):
        family = BellFamily.from_squared(0.85, 0.7)
        members = family.states()[:3]
        joint = pointer_state(
            Ensemble(tuple((1 / 3, s) for s in members)), bell_states()[:3]
        )
        lam = reduced_spectrum(joint).entries
        oracle = rdm_spectrum(joint)
        assert np.allclose(lam, oracle, atol=1e-12)

    def test_tolerances_that_add_up_still_give_a_state(self):
        # each state's norm^2 and the priors' sum are 1 + 0.9e-9, inside DEFAULT_TOL, but the composite's norm^2
        # is about 1 + 1.8e-9: it used to raise ValidationError, and so did the verdict read from it
        states = [PureState(bell.amplitudes * math.sqrt(1.0 + 0.9e-9), 2, 2) for bell in bell_states()[:2]]
        ensemble = Ensemble(tuple((0.5 + 0.45e-9, s) for s in states))
        joint = pointer_state(ensemble, bell_states()[:2])
        assert abs(np.vdot(joint.amplitudes, joint.amplitudes).real - 1.0) < 1e-15
        assert ensemble_discrimination_feasible(ensemble)

    def test_rejects_non_orthogonal_pointers(self):
        tilted = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0), 2, 2)
        with pytest.raises(ValidationError):
            pointer_state(
                Ensemble(((0.5, tilted), (0.5, tilted))),
                [bell_states()[0], tilted],
            )

    def test_rejects_pointers_of_different_dimensions(self):
        pointers = [PureState(np.array([1.0, 0.0, 0.0, 0.0]), 2, 2), PureState(np.array([0.0, 1.0, 0.0, 0.0]), 1, 4)]
        with pytest.raises(ValidationError, match="same local dimensions"):
            pointer_state(Ensemble.equal_priors(bell_states()[:2]), pointers)

    def test_rejects_pointer_count_mismatch(self):
        with pytest.raises(ValidationError):
            pointer_state(Ensemble.equal_priors(bell_states()), bell_states()[:3])


class TestLoccFeasibility:
    def test_bell_to_product(self):
        assert majorizes(ProbVector([0.5, 0.5]), ProbVector([1.0, 0.0]))

    def test_entanglement_cannot_be_created(self):
        assert not majorizes(ProbVector([1.0, 0.0]), ProbVector([0.5, 0.5]))

    def test_partial_sum_arithmetic(self):
        assert majorizes(ProbVector([0.6, 0.4]), ProbVector([0.7, 0.3]))

    def test_ensemble_mix_arithmetic(self):
        targets = [(0.5, ProbVector([1.0, 0.0])), (0.5, ProbVector([0.5, 0.5]))]
        assert locc_ensemble_feasible(ProbVector([0.5, 0.5]), targets)

    def test_peaked_source_needs_peaked_mix(self):
        targets = [(0.5, ProbVector([1.0, 0.0])), (0.5, ProbVector([0.5, 0.5]))]
        assert not locc_ensemble_feasible(ProbVector([1.0, 0.0]), targets)

    def test_source_equal_to_mix_is_feasible(self):
        targets = [(0.4, ProbVector([0.9, 0.1])), (0.6, ProbVector([0.6, 0.4]))]
        assert locc_ensemble_feasible(mix(targets), targets)


class TestPerfectDiscrimination:
    def test_product_corner_is_feasible(self):
        assert perfect_discrimination_feasible(BellFamily.from_squared(1.0, 1.0))

    def test_bell_corner_is_infeasible(self):
        assert not perfect_discrimination_feasible(BellFamily.from_squared(0.5, 0.5))

    def test_interior_point_is_infeasible(self):
        # closed form: (1/8)(sqrt(.9)+sqrt(.1)+sqrt(.9)+sqrt(.1))^2 = 0.8 > 0.5
        family = BellFamily.from_squared(0.9, 0.9)
        assert closed_form_lhs(family) == pytest.approx(0.8, abs=1e-12)
        assert not perfect_discrimination_feasible(family)

    def test_rejects_wrong_prob_count(self):
        with pytest.raises(ValidationError):
            perfect_discrimination_feasible(BellFamily.from_squared(0.9, 0.9), probs=[0.5, 0.5])
        with pytest.raises(ValidationError, match="^expected a list of 4 probabilities, got 5$"):
            perfect_discrimination_feasible(BellFamily.from_squared(0.9, 0.9), 5)


def object_route(ensemble: Ensemble):
    """Pointer spectrum and verdict through the public per-object functions."""
    pointers = bell_states()[: len(ensemble.members)]
    lam = reduced_spectrum(pointer_state(ensemble, pointers))
    target = mix([(p, reduced_spectrum(ptr)) for p, ptr in zip(ensemble.probs, pointers)])
    return lam, majorizes(lam, target)


class TestEnsembleDiscrimination:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (1, 2), (3, 3)])
    def test_matches_object_route(self, dims):
        # the verdict against pointer_state + reduced_spectrum + mix
        # + majorizes, on random complex ensembles of 1-4 members
        rng = np.random.default_rng(100 + 10 * dims[0] + dims[1])
        verdicts = set()
        for trial in range(60):
            size = 1 + trial % 4
            states = [random_pure_state(rng, *dims) for _ in range(size)]
            ensemble = Ensemble(tuple(zip(rng.dirichlet(np.ones(size)).tolist(), states)))
            _, expected = object_route(ensemble)
            assert ensemble_discrimination_feasible(ensemble) == expected
            verdicts.add(expected)
        assert verdicts == {True, False}

    def test_family_ensemble_matches_family_call(self):
        rng = np.random.default_rng(81)
        for a2, c2 in [(1.0, 1.0), (0.5, 0.5), (0.8, 0.7), (0.99, 1.0), (1.0, 0.98)]:
            family = BellFamily.from_squared(a2, c2)
            for probs in (None, rng.dirichlet(np.ones(4)).tolist()):
                ensemble = Ensemble(tuple(zip(probs or [0.25] * 4, family.states())))
                assert ensemble_discrimination_feasible(ensemble) == perfect_discrimination_feasible(family, probs)
                assert ensemble_discrimination_feasible(ensemble) == object_route(ensemble)[1]

    def test_verdict_is_top_eigenvalue_within_half(self):
        # oracle: the Bell-pointer composite by einsum with the Bell matrices
        # written out, and its top eigenvalue by a dense eigvalsh
        bell = np.array([[[1, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 1], [1, 0]], [[0, 1], [-1, 0]]]) / np.sqrt(2.0)
        rng = np.random.default_rng(15)
        seen = {True: 0, False: 0}
        for trial in range(400):
            size = 1 + trial % 4
            states = [random_pure_state(rng, 2, 2) for _ in range(size)]
            probs = rng.dirichlet(np.ones(size))
            mats = np.array([s.amplitudes.reshape(2, 2) for s in states])
            composite = np.einsum("i,iab,icd->acbd", np.sqrt(probs), mats, bell[:size]).reshape(4, 4)
            lam_max = np.linalg.eigvalsh(composite @ composite.conj().T)[-1]
            ensemble = Ensemble(tuple(zip(probs.tolist(), states)))
            for tol in (0.0, 1e-9):
                if abs(lam_max - (0.5 + tol)) <= 1e-12:
                    continue
                verdict = ensemble_discrimination_feasible(ensemble, tol)
                assert verdict == (lam_max <= 0.5 + tol)
                seen[verdict] += 1
        assert min(seen.values()) > 50

    def test_rejects_more_than_four_members(self):
        states = [random_pure_state(np.random.default_rng(k), 2, 3) for k in range(5)]
        with pytest.raises(ValidationError, match="at most 4"):
            ensemble_discrimination_feasible(Ensemble.equal_priors(states))

    def test_bell_states_keep_their_verdict_at_zero_tolerance(self):
        # the Bell states with amplitudes sqrt(0.5), as the family at (0.5, 0.5) and a states file write them: where
        # they pass (order 0,1,3,2 among them), lambda_1 is exactly 1/2. eigvalsh of M M^dagger keeps it there, while
        # in 8 orders the pointer state's singular values square to 0.5000000000000001 and fail at tol 0
        states = BellFamily.from_squared(0.5, 0.5).states()
        verdicts = []
        for order in itertools.permutations(range(4)):
            ensemble = Ensemble.equal_priors([states[m] for m in order])
            verdicts.append(ensemble_discrimination_feasible(ensemble, 0.0))
            assert verdicts[-1] == ensemble_discrimination_feasible(ensemble), order
        assert sum(verdicts) == 20

    def test_every_ordered_bell_pair_passes_at_zero_tolerance(self, tmp_path):
        # written as a states file writes them, with 0.7071067811865476: eigvalsh rounded lambda_1 = 1/2 up to
        # 0.5000000000000001 in 8 of the 12 ordered pairs, which failed at tol 0
        h = 0.7071067811865476
        bell = [[h, 0, 0, h], [h, 0, 0, -h], [0, h, h, 0], [0, h, -h, 0]]
        path = tmp_path / "pair.json"
        for first, second in itertools.permutations(bell, 2):
            states = [{"dim_a": 2, "dim_b": 2, "amplitudes": amps} for amps in (first, second)]
            path.write_text(json.dumps({"probs": [0.5, 0.5], "states": states}))
            assert ensemble_discrimination_feasible(load_ensemble_file(path), 0.0), (first, second)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_orthonormal_pairs_pass_at_zero_tolerance(self, dims):
        # local unitaries applied to orthogonal product pairs and to (|00> + |11>, |01> + |10>) / sqrt(2) keep
        # lambda_1 at its cap of 1/2, which a dense eigensolve can round past; random pairs sit below it.
        # A single member's lambda_1 is capped at 1/2 as well
        rng = np.random.default_rng(20 + 10 * dims[0] + dims[1])
        for trial in range(60):
            u, v = random_unitary(rng, dims[0]), random_unitary(rng, dims[1])
            if trial % 3 == 0:
                pair = [np.outer(u[:, 0], v[:, 0]), np.outer(u[:, 1], v[:, int(rng.integers(dims[1]))])]
            elif trial % 3 == 1:
                pair = [np.outer(u[:, 0], v[:, 0]) + np.outer(u[:, 1], v[:, 1]),
                        np.outer(u[:, 0], v[:, 1]) + np.outer(u[:, 1], v[:, 0])]
                pair = [m / math.sqrt(2.0) for m in pair]
            else:
                pair = random_unitary(rng, dims[0] * dims[1])[:, :2].T.reshape(2, *dims)
            probs = [0.5, 0.5] if trial % 2 else rng.dirichlet(np.ones(2)).tolist()
            ensemble = Ensemble(tuple(zip(probs, map(PureState.from_matrix, pair))))
            assert ensemble_discrimination_feasible(ensemble, 0.0), trial
            assert ensemble_discrimination_feasible(Ensemble(((1.0, ensemble.states[0]),)), 0.0), trial

    def test_a_nearly_orthogonal_pair_above_half_still_fails(self):
        # overlaps 1e-6 and 2e-9, both above DEFAULT_TOL, put the dense lambda_1 above 1/2 by about half of them
        phi_plus, phi_minus = bell_states()[:2]
        for eps in (1e-6, 2e-9):
            tilted = phi_minus.amplitudes + eps * phi_plus.amplitudes
            second = PureState(tilted / np.linalg.norm(tilted), 2, 2)
            members = [phi_plus.coefficient_matrix(), second.coefficient_matrix()]
            assert loop_lambda_max(members, [0.5, 0.5]) > 0.5
            assert not ensemble_discrimination_feasible(Ensemble.equal_priors([phi_plus, second]), 0.0)

    def test_family_pairs_pass_at_zero_tolerance_on_both_routes(self):
        # any two orthogonal states are LOCC-distinguishable (Walgate et al., PRL 85, 4972 (2000)), so every verdict
        # here is true; members at prior 0 must not lift the cap. At the Bell corner with priors 1/2, 1/2 the dense
        # eigensolve and the closed form both rounded lambda_1 to 0.5000000000000001
        axis = np.linspace(0.5, 1.0, 11).tolist()
        for a2, c2 in itertools.product(axis, axis):
            family = BellFamily(a2, c2)
            for p in (1.0, 0.5, 0.3, 0.01):
                for i, j in itertools.combinations(range(4), 2):
                    probs = [0.0] * 4
                    probs[i], probs[j] = p, 1.0 - p
                    assert perfect_discrimination_feasible(family, probs, 0.0), (a2, c2, probs)
                    ensemble = Ensemble(tuple(zip(probs, family.states())))
                    assert ensemble_discrimination_feasible(ensemble, 0.0), (a2, c2, probs)
                for which in itertools.permutations(range(4), 3):
                    for zero in range(3):
                        probs = [p, 1.0 - p]
                        probs.insert(zero, 0.0)
                        assert three_state_feasible(family, which, probs, 0.0), (a2, c2, which, probs)


HALF, PURE = ProbVector([0.5, 0.5]), ProbVector([1.0, 0.0])
VERDICTS = {
    "majorizes": lambda tol: majorizes(HALF, PURE, tol),
    "locc_ensemble_feasible": lambda tol: locc_ensemble_feasible(HALF, [(1.0, PURE)], tol),
    "ensemble_discrimination_feasible": lambda tol: ensemble_discrimination_feasible(
        Ensemble.equal_priors(bell_states()[:2]), tol
    ),
    "perfect_discrimination_feasible": lambda tol: perfect_discrimination_feasible(
        BellFamily.from_squared(1.0, 1.0), None, tol
    ),
    "three_state_feasible": lambda tol: three_state_feasible(BellFamily.from_squared(1.0, 1.0), (0, 1, 2), None, tol),
}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_verdicts_refuse_a_bad_tolerance(name):
    # a NaN or negative tolerance would make every comparison False and return a verdict with no error
    verdict = VERDICTS[name]
    assert verdict(0.0) in (True, False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tol in (math.nan, math.inf, -1e-3, "0.1", True, np.complex128(0.9), np.complex128(0.9 + 0.4j),
                    Fraction(9, 10), np.array(0.9), 10**20, 10**400, 10**5000):
            with pytest.raises(ValidationError, match="tolerance must be a finite number >= 0"):
                verdict(tol)


class TestClosedForm:
    def test_bell_corner(self):
        assert closed_form_lhs(BellFamily.from_squared(0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_product_corner(self):
        assert closed_form_lhs(BellFamily.from_squared(1.0, 1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_corners_exact(self):
        # (a+b+c+d)^2 / 8 rounds to 1.0000000000000002 at the Bell corner; lambda_1 <= 1 clamps it
        assert closed_form_lhs(BellFamily.from_squared(0.5, 0.5)) == 1.0
        assert closed_form_lhs(BellFamily.from_squared(1.0, 1.0)) == 0.5

    def test_any_priors_against_loop_eigensolve(self):
        rng = np.random.default_rng(16)
        seen = {True: 0, False: 0}
        for k in range(300):
            a2, c2 = rng.uniform(0.95 if k % 2 else 0.5, 1.0, 2)
            probs = rng.dirichlet(np.ones(4))
            if k % 3 == 0:
                probs[rng.integers(4)] = 0.0
                probs /= probs.sum()
            family = BellFamily.from_squared(a2, c2)
            lam = loop_lambda_max(family_member_matrices(a2, c2), probs)
            assert closed_form_lhs(family, probs) == pytest.approx(lam, rel=0.0, abs=1e-13)
            if abs(lam - 0.5 - DEFAULT_TOL) > 1e-12:
                verdict = perfect_discrimination_feasible(family, probs)
                assert verdict == (lam <= 0.5 + DEFAULT_TOL)
                seen[verdict] += 1
        assert min(seen.values()) > 10

    def test_close_singular_values_keep_precision(self):
        # near a = b with the last two priors near 0, the dominant X block's two
        # singular values nearly coincide; (F + sqrt(F^2 - 4 det^2)) / 2 is off
        # by up to 3.1e-11 at these points
        probs = [0.5, 0.5 - 1e-12, 1e-12, 0.0]
        for a2 in 0.5 + np.logspace(-16, -4, 25):
            lam = loop_lambda_max(family_member_matrices(a2, 0.5), probs)
            assert closed_form_lhs(BellFamily.from_squared(a2, 0.5), probs) == pytest.approx(lam, rel=0.0, abs=1e-14)

    def test_rejects_bad_priors(self):
        family = BellFamily.from_squared(0.9, 0.9)
        for probs in ([0.5, 0.5], [0.5, 0.5, 0.5, -0.5], [0.3, 0.3, 0.3, 0.3]):
            with pytest.raises(ValidationError):
                closed_form_lhs(family, probs)


class TestPointerLambdaMax:
    def test_against_loop_eigensolve(self):
        # part 1: random complex 2x2 sets of 1-4 members with random priors
        rng = np.random.default_rng(17)
        for trial in range(200):
            size = 1 + trial % 4
            states = [random_pure_state(rng, 2, 2) for _ in range(size)]
            probs = rng.dirichlet(np.ones(size)).tolist()
            lam = loop_lambda_max([s.coefficient_matrix() for s in states], probs)
            pointer = pointer_state(Ensemble(tuple(zip(probs, states))), bell_states()[:size])
            assert reduced_spectrum(pointer).entries[0] == pytest.approx(lam, rel=0.0, abs=1e-12)
        # part 2: three-member subsets in every order over a 21 x 21 lattice, both verdicts seen
        seen = {True: 0, False: 0}
        for a2, c2 in itertools.product(np.linspace(0.5, 1.0, 21), repeat=2):
            family, members = BellFamily.from_squared(a2, c2), family_member_matrices(a2, c2)
            for which in itertools.permutations(range(4), 3):
                for probs in (None, [0.5, 0.3, 0.2]):
                    lam = loop_lambda_max([members[k] for k in which], probs or [1 / 3] * 3)
                    if abs(lam - 0.5 - DEFAULT_TOL) <= 1e-12:
                        continue
                    verdict = three_state_feasible(family, which, probs)
                    assert verdict == (lam <= 0.5 + DEFAULT_TOL), (a2, c2, which, probs)
                    seen[verdict] += 1
        assert min(seen.values()) > 1000


ORDERS = list(itertools.permutations(range(4)))


def order_lambda_max(a2, c2, probs, order) -> float:
    """``family_lambda_max`` for one point, with ``order[j]`` the member on Bell pointer j."""
    amplitudes = math.sqrt(a2), math.sqrt(1.0 - a2), math.sqrt(c2), math.sqrt(1.0 - c2)
    return float(family_lambda_max(*amplitudes, list(probs), order))


class TestEveryMemberOrder:
    def test_against_loop_eigensolve(self):
        # all 24 orders of the four members; a zero prior on the last pointer gives the 24 ordered three-member
        # choices, and one elsewhere drops a member from the middle
        rng = np.random.default_rng(21)
        for order in ORDERS:
            for k in range(60):
                a2, c2 = rng.uniform(0.0 if k % 2 else 0.5, 1.0, 2)
                probs = rng.dirichlet(np.ones(4))
                if k % 3 == 0:
                    probs[3 if k % 6 == 0 else rng.integers(3)] = 0.0
                    probs /= probs.sum()
                members = family_member_matrices(a2, c2)
                lam = loop_lambda_max([members[m] for m in order], probs)
                assert order_lambda_max(a2, c2, probs, order) == pytest.approx(lam, rel=0.0, abs=1e-13), (order, k)
                if probs[3] == 0.0:  # a three-member order is padded with the missing member
                    assert order_lambda_max(a2, c2, probs[:3], order[:3]) == pytest.approx(lam, rel=0.0, abs=1e-13)

    def test_w_class_spectrum_is_doubled(self):
        # with members 0 and 1 on pointers {0, 3} or {1, 2}, the oracle's eigenvalues come in equal pairs, so the
        # unit trace caps lambda_1 at 1/2 whatever the amplitudes and priors
        rng = np.random.default_rng(22)
        orders = [order for order in ORDERS if {order.index(0), order.index(1)} in ({0, 3}, {1, 2})]
        assert len(orders) == 8
        for order in orders:
            for k in range(40):
                a2, c2 = rng.uniform(0.5, 1.0, 2)
                probs = rng.dirichlet(np.ones(4))
                if k % 3 == 0:
                    probs[3] = 0.0
                    probs /= probs.sum()
                members = family_member_matrices(a2, c2)
                spectrum = loop_pointer_spectrum([members[m] for m in order], probs)
                assert spectrum[1] - spectrum[0] <= 1e-12 and spectrum[3] - spectrum[2] <= 1e-12, (order, spectrum)
                assert spectrum[3] <= 0.5 + 1e-12
                assert order_lambda_max(a2, c2, probs, order) == pytest.approx(spectrum[3], rel=0.0, abs=1e-13)

    def test_w_class_never_rounds_past_half(self):
        # any two orthogonal states are LOCC-distinguishable, yet with two priors of 1/2 the W class's closed form
        # used to round past its cap to 0.5000000000000001, so tol 0 called such a pair indistinguishable
        axis = np.linspace(0.5, 1.0, 101)
        a2, c2 = (m.ravel() for m in np.meshgrid(axis, axis, indexing="ij"))
        amplitudes = np.sqrt(a2), np.sqrt(1.0 - a2), np.sqrt(c2), np.sqrt(1.0 - c2)
        families = [BellFamily.from_squared(x, y) for x, y in itertools.product(axis[::10].tolist(), repeat=2)]
        assert (families[0].a, families[0].c) == (math.sqrt(0.5), math.sqrt(0.5))
        for size in (3, 4):
            padded = {order: (*order, 6 - sum(order))[:4] for order in itertools.permutations(range(4), size)}
            orders = [order for order, full in padded.items() if {full.index(0), full.index(1)} in ({0, 3}, {1, 2})]
            assert len(orders) == 8
            for order, pair in itertools.product(orders, itertools.combinations(range(size), 2)):
                probs = [0.5 if j in pair else 0.0 for j in range(size)]
                assert family_lambda_max(*amplitudes, probs, order).max() <= 0.5, (order, probs)
                if size == 3:
                    assert all(three_state_feasible(f, order, probs, tol=0.0) for f in families), (order, probs)

    def test_natural_order_keeps_its_bits(self):
        # the assist CSV bytes were pinned with these two formulas for the natural order: (a + b + c + d)^2 / 8 at
        # equal priors and the "X" matrix's {0, 3} block otherwise
        axis = np.linspace(0.5, 1.0, 101)
        a2, c2 = np.meshgrid(axis, axis, indexing="ij")
        a, b, c, d = np.sqrt(a2), np.sqrt(1.0 - a2), np.sqrt(c2), np.sqrt(1.0 - c2)
        assert np.array_equal(family_lambda_max(a, b, c, d, [0.25] * 4), np.minimum((a + b + c + d) ** 2 / 8.0, 1.0))
        s0, s1, s2, s3 = np.sqrt([0.4, 0.3, 0.2, 0.1])
        q = np.hypot((s0 + s1) * (a + b), (s2 - s3) * (c - d))
        expected = np.minimum((q + np.hypot((s0 - s1) * (a - b), (s2 + s3) * (c + d))) ** 2 / 8.0, 1.0)
        assert np.array_equal(family_lambda_max(a, b, c, d, [0.4, 0.3, 0.2, 0.1]), expected)

    def test_general_kernel_agrees_on_states_files(self, tmp_path):
        # each order written as a states file, loaded and decided by ensemble_discrimination_feasible (eigvalsh of
        # the pointer state's M M^dagger), against the closed form for that order
        rng = np.random.default_rng(23)
        path = tmp_path / "states.json"
        seen = {True: 0, False: 0}
        for order in ORDERS:
            for a2, c2 in itertools.product(np.linspace(0.5, 1.0, 5), repeat=2):
                members = family_member_matrices(a2, c2)
                states = [{"dim_a": 2, "dim_b": 2, "amplitudes": np.ravel(members[m]).tolist()} for m in order]
                for probs in ([0.25] * 4, rng.dirichlet(np.ones(4)).tolist(), [0.5, 0.3, 0.2, 0.0]):
                    lam = order_lambda_max(a2, c2, probs, order)
                    if abs(lam - 0.5 - DEFAULT_TOL) <= 1e-12:
                        continue
                    path.write_text(json.dumps({"states": states, "probs": probs}))
                    verdict = ensemble_discrimination_feasible(load_ensemble_file(str(path)))
                    assert verdict == (lam <= 0.5 + DEFAULT_TOL), (order, a2, c2, probs)
                    seen[verdict] += 1
        assert min(seen.values()) > 100


class TestPerPointMatchesSweep:
    # the per-point verdicts and the sweep columns share one kernel, so a call on one point's Python floats must
    # give the array call's element bit for bit; math.hypot, for one, differs from np.hypot in the last bit
    @pytest.mark.parametrize(
        "orders, priors",
        [
            (ORDERS, ([0.25] * 4, [0.4, 0.3, 0.2, 0.1], [0.5, 0.3, 0.2, 0.0], [0.1, 0.2, 0.3, 0.4])),
            (list(itertools.permutations(range(4), 3)), ([1 / 3] * 3, [0.5, 0.3, 0.2], [0.6, 0.4, 0.0])),
        ],
        ids=["four-members", "three-members"],
    )
    def test_scalar_calls_equal_array_elements(self, orders, priors):
        a2, c2 = (m.ravel() for m in np.meshgrid(*[np.linspace(0.5, 1.0, 21)] * 2, indexing="ij"))
        amplitudes = np.sqrt(a2), np.sqrt(1.0 - a2), np.sqrt(c2), np.sqrt(1.0 - c2)
        families = [BellFamily.from_squared(x, y) for x, y in zip(a2.tolist(), c2.tolist())]
        assert [[f.a, f.b, f.c, f.d] for f in families] == np.transpose(amplitudes).tolist()
        for order in orders:
            for probs in priors:
                points = [family_lambda_max(f.a, f.b, f.c, f.d, probs, order) for f in families]
                assert np.array_equal(points, family_lambda_max(*amplitudes, probs, order)), (order, probs)


class TestThreeState:
    def test_two_maximal_members_infeasible(self):
        assert not three_state_feasible(BellFamily.from_squared(0.5, 0.5))
        assert not three_state_feasible(BellFamily.from_squared(0.5, 0.9))

    def test_product_members_feasible(self):
        assert three_state_feasible(BellFamily.from_squared(1.0, 1.0))

    def test_some_interior_point_feasible(self):
        assert three_state_feasible(BellFamily.from_squared(0.99, 0.995))

    def test_subset_selection(self):
        # the relation pairs members with pointers in the given order, so the
        # verdict depends on the subset: with (0, 1, 3) the two maximal
        # members at a2 = 0.5 align with the first two pointers and are ruled
        # out, while the misaligned (0, 2, 3) arrangement is not
        assert not three_state_feasible(BellFamily.from_squared(0.5, 0.9), which=(0, 1, 3))
        assert three_state_feasible(BellFamily.from_squared(0.9, 0.5), which=(0, 2, 3))

    def test_rejects_bad_subsets(self):
        family = BellFamily.from_squared(0.9, 0.9)
        for which in [(0, 1), (0, 1, 1), (0, 1, 4), (0, 1, 2, 3), (0.9, 1, 2), (True, 2, 3), (0, 1, 2.0),
                      (np.timedelta64(0), 1, 2)]:
            with pytest.raises(ValidationError):
                three_state_feasible(family, which=which)

    def test_rejects_wrong_prob_count(self):
        with pytest.raises(ValidationError):
            three_state_feasible(BellFamily.from_squared(0.9, 0.9), probs=[0.25] * 4)

    def test_rejects_a_which_that_is_not_a_sequence(self):
        with pytest.raises(ValidationError, match=r"^which=5 must be three distinct indices in 0\.\.3$"):
            three_state_feasible(BellFamily.from_squared(0.9, 0.9), 5)


class TestAssistedCost:
    def test_bell_corner_costs_one_ebit(self):
        report = assisted_alpha2_max(BellFamily.from_squared(0.5, 0.5))
        assert report.feasible
        assert report.alpha2_max == pytest.approx(0.5, abs=1e-9)
        assert report.cost_ebits == pytest.approx(1.0, abs=1e-9)

    def test_bell_corner_first_sum_bound_is_half(self):
        # unclamped, lambda_1 rounds to 1.0000000000000002 and the bound to 0.4999999999999999
        report = assisted_alpha2_max(BellFamily.from_squared(0.5, 0.5))
        assert report.first_sum_bound == report.alpha2_max == 0.5

    def test_product_corner_is_free(self):
        report = assisted_alpha2_max(BellFamily.from_squared(1.0, 1.0))
        assert report.feasible
        assert report.alpha2_max == 1.0
        assert report.cost_ebits == 0.0
        assert report.first_sum_bound == pytest.approx(1.0, abs=1e-12)

    def test_mixed_corner_matches_closed_bound(self):
        report = assisted_alpha2_max(BellFamily.from_squared(1.0, 0.5))
        expected = 4.0 / (1.0 + np.sqrt(2.0)) ** 2
        assert expected == pytest.approx(0.6862915010152396, abs=1e-12)
        assert report.first_sum_bound == pytest.approx(expected, abs=1e-12)
        assert report.alpha2_max == pytest.approx(expected, abs=1e-9)

    def test_closed_form_against_grid_scan_oracle(self):
        for a2, c2 in [(0.6, 0.9), (0.75, 0.75), (1.0, 0.5), (0.55, 1.0)]:
            family = BellFamily.from_squared(a2, c2)
            lam = reduced_spectrum(family_pointer_state(family)).entries
            report = assisted_alpha2_max(family)
            assert report.alpha2_max == pytest.approx(alpha2_max_scan(lam), abs=2e-4)

    def test_closed_form_matches_tensor_majorization_route(self):
        # the closed form must agree with tensor + majorizes: one step below
        # the reported boundary is feasible, one step above is not
        rng = np.random.default_rng(19)
        target = ProbVector([0.5, 0.5])
        for _ in range(50):
            family = BellFamily.from_squared(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))
            lam = reduced_spectrum(family_pointer_state(family))
            report = assisted_alpha2_max(family)
            for delta in (-1e-6, 1e-6):
                alpha2 = report.alpha2_max + delta
                if not 0.5 <= alpha2 <= 1.0:
                    continue
                resource = ProbVector([alpha2, 1.0 - alpha2])
                expected = delta < 0
                assert majorizes(tensor(resource, lam), target, tol=1e-12) == expected

    def test_any_resource_feasible_iff_top_entry_within_bound(self):
        # a resource r of any dimension unlocks discrimination iff
        # r_1 <= 1/(2 lambda_1), and then it carries at least the two-term
        # cost: the two-term model loses nothing
        rng = np.random.default_rng(41)
        target = ProbVector([0.5, 0.5])
        seen = {True: 0, False: 0}
        for _ in range(300):
            family = BellFamily.from_squared(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))
            lam = reduced_spectrum(family_pointer_state(family))
            report = assisted_alpha2_max(family)
            dim = int(rng.integers(2, 6))
            top = rng.uniform(1.0 / dim, 1.0)
            resource = ProbVector(np.concatenate(([top], (1.0 - top) * rng.dirichlet(np.ones(dim - 1)))))
            bound = 1.0 / (2.0 * lam.entries[0])
            if abs(resource.entries[0] - bound) < 1e-9:
                continue
            feasible = majorizes(tensor(resource, lam), target, tol=1e-12)
            assert feasible == (resource.entries[0] < bound)
            if feasible:
                assert entropy_bits(resource) >= report.cost_ebits - 1e-12
            seen[feasible] += 1
        assert min(seen.values()) > 50

    def test_report_fields_are_identities(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            family = BellFamily.from_squared(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))
            report = assisted_alpha2_max(family)
            assert report.feasible is True
            assert report.alpha2_max == pytest.approx(report.first_sum_bound, abs=1e-12)

    def test_never_exceeds_first_sum_bound(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            family = BellFamily.from_squared(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))
            report = assisted_alpha2_max(family)
            assert report.alpha2_max <= report.first_sum_bound + 1e-9

    def test_feasibility_equivalence_with_unassisted(self):
        axis = np.append(np.linspace(0.5, 1.0, 21), [0.995, 0.9999])
        seen = set()
        for a2, c2 in itertools.product(axis, repeat=2):
            family = BellFamily.from_squared(a2, c2)
            unassisted = perfect_discrimination_feasible(family)
            assert unassisted == (assisted_alpha2_max(family).alpha2_max == 1.0)
            seen.add(unassisted)
        assert seen == {True, False}

    def test_first_sum_bound_is_alpha2_max_within_tol_of_half(self):
        # a lambda_1 within DEFAULT_TOL above 1/2 needs no resource; the bound
        # used to read 0.9999999999 beside alpha2_max 1. No (a2, c2) family
        # lands there (the smallest b > 0 already gives 1/2 + 5.3e-9), so the
        # closed form is checked directly, and the family at lambda_1 = 1/2
        assert alpha2_max_from_lambda(0.5 + 5e-11) == 1.0
        report = assisted_alpha2_max(BellFamily(1.0, 1.0))
        assert report.first_sum_bound == report.alpha2_max == 1.0

    def test_cost_monotone_as_entanglement_grows(self):
        costs = [
            assisted_alpha2_max(BellFamily.from_squared(a2, 0.8)).cost_ebits
            for a2 in np.linspace(1.0, 0.5, 21)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_cost_is_binary_entropy_of_alpha2(self):
        report = assisted_alpha2_max(BellFamily.from_squared(0.83, 0.69))
        assert report.cost_ebits == pytest.approx(binary_entropy(report.alpha2_max), abs=1e-12)


class TestPreserve:
    def test_maximally_entangled_family(self):
        spectrum = preserve_spectrum(BellFamily.from_squared(0.5, 0.5))
        assert np.allclose(spectrum.entries, [0.25] * 4, atol=1e-12)
        assert preserve_cost(BellFamily.from_squared(0.5, 0.5)) == pytest.approx(2.0, abs=1e-9)

    def test_product_family(self):
        spectrum = preserve_spectrum(BellFamily.from_squared(1.0, 1.0))
        assert np.allclose(spectrum.entries, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert preserve_cost(BellFamily.from_squared(1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_half_and_product(self):
        spectrum = preserve_spectrum(BellFamily.from_squared(0.5, 1.0))
        assert np.allclose(spectrum.entries, [0.625, 0.125, 0.125, 0.125], atol=1e-12)
        assert preserve_cost(BellFamily.from_squared(0.5, 1.0)) == pytest.approx(
            entropy_direct([0.625, 0.125, 0.125, 0.125]), abs=1e-12
        )

    def test_closed_component_formula(self):
        # 1/2 (a^4+c^4, a^2 b^2 + c^2 d^2, same, b^4 + d^4) for equal priors
        family = BellFamily.from_squared(0.81, 0.64)
        a2, b2, c2, d2 = 0.81, 0.19, 0.64, 0.36
        expected = 0.5 * np.array(
            [a2**2 + c2**2, a2 * b2 + c2 * d2, a2 * b2 + c2 * d2, b2**2 + d2**2]
        )
        assert np.allclose(
            preserve_spectrum(family).entries, np.sort(expected)[::-1], atol=1e-12
        )

    def test_diagonal_tensor_identity(self):
        for a2 in np.linspace(0.5, 1.0, 11):
            family = BellFamily.from_squared(a2, a2)
            lam = family.spectra()[0]
            assert np.allclose(
                preserve_spectrum(family).entries, tensor(lam, lam).entries, atol=1e-12
            )
            assert preserve_cost(family) == pytest.approx(
                2.0 * entropy_bits(reduced_spectrum(family.states()[0])), abs=1e-9
            )

    def test_cost_within_teleportation_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            family = BellFamily.from_squared(rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0))
            assert -1e-12 <= preserve_cost(family) <= 2.0 + 1e-12

    def test_cost_monotone_as_entanglement_grows(self):
        costs = [
            preserve_cost(BellFamily.from_squared(a2, 0.9))
            for a2 in np.linspace(1.0, 0.5, 21)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_cap_is_elementwise_and_within_two_ulps_of_exact(self):
        # (4, k) rows give the k single calls' caps, each within 2 ulps of the exact weighted sum.
        rng = np.random.default_rng(5)
        rows = [np.array([x * x, x * (1 - x), x * (1 - x), (1 - x) ** 2]) for x in rng.uniform(0.5, 1.0, (2, 40))]
        probs = rng.dirichlet(np.ones(4)).tolist()
        cap = preserve_cap(*rows, probs)
        w_a, w_c = Fraction(probs[0]) + Fraction(probs[1]), Fraction(probs[2]) + Fraction(probs[3])
        for k in range(40):
            assert np.array_equal(cap[:, k], preserve_cap(rows[0][:, k], rows[1][:, k], probs))
            exact = [float(w_a * Fraction(t_a) + w_c * Fraction(t_c)) for t_a, t_c in zip(rows[0][:, k], rows[1][:, k])]
            assert np.all(np.abs(cap[:, k] - exact) <= 2 * np.spacing(exact))

    def test_nonuniform_priors_route(self):
        family = BellFamily.from_squared(0.7, 0.9)
        probs = [0.4, 0.3, 0.2, 0.1]
        expected = mix(
            [(p, tensor(s, s)) for p, s in zip(probs, family.spectra())]
        )
        assert np.allclose(preserve_spectrum(family, probs).entries, expected.entries)


class TestPartialInnerProduct:
    def test_probe_returns_conjugate_at_half_norm(self):
        probe = conjugation_probe()
        family = BellFamily.from_squared(0.77, 0.61).states()
        for member in family:
            result = partial_inner_product(member, probe)
            assert result.norm == pytest.approx(0.5, abs=1e-12)
            recovered = result.norm * result.state.amplitudes
            assert np.linalg.norm(recovered - 0.5 * np.conj(member.amplitudes)) < 1e-12

    def test_branch_weights_sum_to_one(self):
        probe = conjugation_probe()
        weights = [
            partial_inner_product(member, probe).norm ** 2
            for member in BellFamily.from_squared(0.9, 0.8).states()
        ]
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_bra_gives_zero(self):
        # joint supported on the span of the first two members only, laid out
        # with the full AB pair as its first cut (plain kron, no regrouping)
        family = BellFamily.from_squared(0.77, 0.61).states()
        pointers = bell_states()
        amps = sum(
            np.sqrt(0.5) * np.kron(family[i].amplitudes, pointers[i].amplitudes)
            for i in range(2)
        )
        joint = PureState(amps, 4, 4)
        result = partial_inner_product(family[2], joint)
        assert result.norm == 0.0
        assert result.state is None

    def test_dimension_mismatch_rejected(self):
        bra = random_pure_state(np.random.default_rng(23), 2, 3)
        with pytest.raises(ValidationError, match="^joint has dimensions 4x4, expected 6x6$"):
            partial_inner_product(bra, conjugation_probe())

    def test_asymmetric_joint_needs_dims_out(self):
        # no residual split is taken but the bra's, so a 4x2 joint, which once needed dims_out, is refused
        bra = random_pure_state(np.random.default_rng(25), 2, 2)
        joint = random_pure_state(np.random.default_rng(26), 4, 2)
        with pytest.raises(ValidationError, match="^joint has dimensions 4x2, expected 4x4$"):
            partial_inner_product(bra, joint)
