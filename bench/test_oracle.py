"""Checks of the benchmark's oracle against values known in closed form.

Run with ``python3 -m pytest bench``. These tests never import entdisc.
"""

import math

import numpy as np

import oracle

AXIS = [0.5, 0.6, 0.75, 0.9, 0.99, 1.0]


def test_bell_pointers_are_orthonormal():
    flat = [np.array(m).ravel() for m in oracle.BELL]
    gram = np.array([[np.dot(x, y) for y in flat] for x in flat])
    assert np.allclose(gram, np.eye(4), atol=1e-15)


def test_equal_prior_pointer_spectrum_matches_closed_form():
    for a2 in AXIS:
        for c2 in AXIS:
            a, b, c, d = oracle.family_amplitudes(a2, c2)
            expected = sorted(
                [(a + b + c + d) ** 2, (a + b - c - d) ** 2, (a - b + c - d) ** 2, (a - b - c + d) ** 2],
                reverse=True,
            )
            lam = oracle.pointer_spectrum(oracle.family_matrices(a2, c2), [0.25] * 4)
            assert np.allclose(lam, np.array(expected) / 8.0, atol=1e-12)
            assert abs(lam[0] - oracle.lambda1_equal_priors(a2, c2)) <= 1e-12


def test_four_state_verdict_only_at_product_corner():
    for a2 in AXIS:
        for c2 in AXIS:
            lam = oracle.pointer_spectrum(oracle.family_matrices(a2, c2), [0.25] * 4)
            feasible, _ = oracle.discrimination_verdict(lam)
            assert feasible == (a2 == 1.0 and c2 == 1.0)


def _alpha2_scan(lam, step=1e-5):
    """Largest alpha^2 on a grid whose full partial-sum test passes, by plain loops."""
    k = 0
    while True:
        alpha2 = 1.0 - k * step
        cand = sorted([alpha2 * v for v in lam] + [(1.0 - alpha2) * v for v in lam], reverse=True)
        running, ok = 0.0, True
        for i, v in enumerate(cand):
            running += v
            if running > (0.5 if i == 0 else 1.0) + 1e-12:
                ok = False
                break
        if ok:
            return alpha2
        k += 1


def test_alpha2_closed_form_matches_full_partial_sum_scan():
    assert abs(oracle.alpha2_max_equal_priors(0.5, 0.5) - 0.5) <= 1e-15
    assert oracle.alpha2_max_equal_priors(1.0, 1.0) == 1.0
    for a2, c2 in [(0.6, 0.9), (0.8, 0.7), (0.95, 0.55), (0.99, 1.0)]:
        lam = oracle.pointer_spectrum(oracle.family_matrices(a2, c2), [0.25] * 4)
        exact = oracle.alpha2_max_equal_priors(a2, c2)
        assert abs(exact - min(1.0, 1.0 / (2.0 * lam[0]))) <= 1e-12
        assert 0.0 <= exact - _alpha2_scan(lam) <= 1e-5


def test_preserve_cost_endpoints_and_range():
    assert abs(oracle.preserve_cost(0.5, 0.5, [0.25] * 4) - 2.0) <= 1e-12
    assert oracle.preserve_cost(1.0, 1.0, [0.25] * 4) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(200):
        a2, c2 = rng.uniform(0.5, 1.0, 2)
        value = oracle.preserve_cost(a2, c2, rng.dirichlet(np.ones(4)))
        assert 0.0 <= value <= 2.0


def test_distinguishability_bounds_of_bell_and_product_states():
    assert np.allclose(oracle.distinguishability_bounds(oracle.BELL), (2.0, 2.0, 2.0))
    product = oracle.family_matrices(1.0, 1.0)
    assert np.allclose(oracle.distinguishability_bounds(product), (4.0, 4.0, 4.0))


def test_convertibility_partial_sums():
    assert oracle.convertible([0.5, 0.5], [(1.0, [1.0])]) == (True, False)
    assert oracle.convertible([1.0], [(1.0, [0.5, 0.5])]) == (False, False)
    assert oracle.convertible([0.5, 0.5], [(0.5, [1.0]), (0.5, [0.5, 0.5])])[0]


def test_entropy_and_lattice():
    assert oracle.entropy([0.5, 0.5]) == 1.0
    assert oracle.binary_entropy(1.0) == 0.0
    axis = oracle.lattice(101)
    assert axis[0] == 0.5 and axis[-1] == 1.0
    assert all(math.isclose(x, y, abs_tol=1e-15) for x, y in zip(axis, np.linspace(0.5, 1.0, 101)))
