"""Expected outputs for the benchmark, computed without entdisc.

Nothing here imports entdisc. Spectra come from an explicit index-loop build
of the coefficient matrix and a dense Hermitian eigensolve (entdisc uses SVD),
entropies and partial sums from plain loops, and the assisted resource from
its closed form (entdisc bisects). Verdicts near a decision threshold are
reported as ambiguous, so that a difference in the last bits of a spectrum
cannot be mistaken for a wrong answer.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOL = 1e-9

# A verdict whose deciding margin lies within this distance of the tolerance
# is accepted either way: two correct eigensolvers differ by ~1e-16.
AMBIGUOUS_BAND = 1e-10

_R = 1.0 / math.sqrt(2.0)

# Coefficient matrices of the four maximally entangled two-qubit pointers,
# in the order the pointer construction pairs them with ensemble members.
BELL = (
    ((_R, 0.0), (0.0, _R)),
    ((_R, 0.0), (0.0, -_R)),
    ((0.0, _R), (_R, 0.0)),
    ((0.0, _R), (-_R, 0.0)),
)


def family_amplitudes(a2: float, c2: float) -> tuple[float, float, float, float]:
    return math.sqrt(a2), math.sqrt(1.0 - a2), math.sqrt(c2), math.sqrt(1.0 - c2)


def family_matrices(a2: float, c2: float) -> list:
    """Coefficient matrices of a|00>+b|11>, b|00>-a|11>, c|01>+d|10>, d|01>-c|10>."""
    a, b, c, d = family_amplitudes(a2, c2)
    return [
        ((a, 0.0), (0.0, b)),
        ((b, 0.0), (0.0, -a)),
        ((0.0, c), (d, 0.0)),
        ((0.0, d), (-c, 0.0)),
    ]


def state_matrix(amplitudes, dim_a: int, dim_b: int) -> list:
    """Row-major amplitudes (amplitude of |i>|j> at i * dim_b + j) as nested lists."""
    return [[complex(amplitudes[i * dim_b + j]) for j in range(dim_b)] for i in range(dim_a)]


def spectrum(matrix) -> np.ndarray:
    """Descending eigenvalues of M M^dagger, the reduced state of the row system."""
    m = np.array(matrix, dtype=complex)
    eigs = np.linalg.eigvalsh(m @ m.conj().T)[::-1]
    return np.clip(eigs.real, 0.0, None)


def pointer_matrix(members, probs, pointers) -> list:
    """Coefficient matrix of sum_i sqrt(p_i) psi_i (x) phi_i on the AC:BD cut.

    Row index a * dim_c + c, column index b * dim_d + d, filled entry by entry.
    """
    dim_a, dim_b = len(members[0]), len(members[0][0])
    dim_c, dim_d = len(pointers[0]), len(pointers[0][0])
    out = [[0j] * (dim_b * dim_d) for _ in range(dim_a * dim_c)]
    for psi, p, phi in zip(members, probs, pointers):
        w = math.sqrt(p)
        for a in range(dim_a):
            for c in range(dim_c):
                for b in range(dim_b):
                    for d in range(dim_d):
                        out[a * dim_c + c][b * dim_d + d] += w * psi[a][b] * phi[c][d]
    return out


def pointer_spectrum(members, probs) -> np.ndarray:
    """Spectrum of the pointer state that attaches Bell pointer i to member i."""
    return spectrum(pointer_matrix(members, probs, BELL[: len(members)]))


def discrimination_verdict(lam: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[bool, bool]:
    """(feasible, ambiguous) for perfect discrimination with Bell pointers.

    Every Bell pointer has the spectrum (1/2, 1/2), so the mixed target is
    (1/2, 1/2, 0, ...) for any priors. Its partial sums are (1/2, 1, 1, ...),
    so only the leading eigenvalue can violate majorization.
    """
    margin = 0.5 + tol - float(lam[0])
    return margin >= 0.0, abs(margin) < AMBIGUOUS_BAND


def lambda1_equal_priors(a2: float, c2: float) -> float:
    """Leading pointer eigenvalue of the four-member family at equal priors, (a+b+c+d)^2 / 8."""
    return sum(family_amplitudes(a2, c2)) ** 2 / 8.0


def alpha2_max_equal_priors(a2: float, c2: float) -> float:
    """Closed-form assisted resource, min(1, 4 / (a+b+c+d)^2).

    Jonathan-Plenio ensemble majorization against the two-term target
    (1/2, 1/2, 0, ...): only the first partial sum binds, so the largest
    admissible alpha^2 is min(1, 1 / (2 lambda_1)).
    """
    return min(1.0, 4.0 / sum(family_amplitudes(a2, c2)) ** 2)


def entropy(values) -> float:
    """Shannon entropy in bits by a plain loop, with 0 log 0 = 0."""
    total = 0.0
    for v in values:
        if v > 0.0:
            total -= v * math.log2(v)
    return total


def binary_entropy(p: float) -> float:
    return entropy((p, 1.0 - p))


def preserve_vector(a2: float, c2: float, probs) -> list[float]:
    """w_a (a^4, a^2 b^2, a^2 b^2, b^4) + w_c (c^4, c^2 d^2, c^2 d^2, d^4)."""
    w_a, w_c = probs[0] + probs[1], probs[2] + probs[3]
    b2, d2 = 1.0 - a2, 1.0 - c2
    first = (a2 * a2, a2 * b2, a2 * b2, b2 * b2)
    second = (c2 * c2, c2 * d2, c2 * d2, d2 * d2)
    return [w_a * x + w_c * y for x, y in zip(first, second)]


def preserve_cost(a2: float, c2: float, probs) -> float:
    return entropy(preserve_vector(a2, c2, probs))


def average_entanglement(a2: float, c2: float, probs, which=(0, 1, 2, 3)) -> float:
    h = (binary_entropy(a2), binary_entropy(a2), binary_entropy(c2), binary_entropy(c2))
    return sum(p * h[i] for p, i in zip(probs, which))


def distinguishability_bounds(matrices) -> tuple[float, float, float]:
    """(robustness, relative-entropy, geometric) bounds D / mean(weight)."""
    dim = len(matrices[0]) * len(matrices[0][0])
    rob = rel = geo = 0.0
    for m in matrices:
        lam = spectrum(m)
        root_sum = sum(math.sqrt(v) for v in lam)
        rob += 1.0 + max(root_sum * root_sum - 1.0, 0.0)
        rel += 2.0 ** entropy(lam)
        geo += 2.0 ** max(-math.log2(lam[0]), 0.0)
    n = len(matrices)
    return dim / (rob / n), dim / (rel / n), dim / (geo / n)


def convertible(source, targets, tol: float = DEFAULT_TOL) -> tuple[bool, bool]:
    """(feasible, ambiguous) for LOCC conversion of ``source`` into weighted ``targets``.

    The weighted average of the descending-sorted targets must dominate the
    sorted source in every partial sum, both zero-padded to a common length.
    """
    n = max([len(source)] + [len(t) for _, t in targets])
    mixed = [0.0] * n
    for w, t in targets:
        for k, v in enumerate(sorted(t, reverse=True)):
            mixed[k] += w * v
    src = sorted(source, reverse=True) + [0.0] * (n - len(source))
    worst = math.inf
    sum_x = sum_y = 0.0
    for k in range(n):
        sum_x += src[k]
        sum_y += mixed[k]
        worst = min(worst, sum_y + tol - sum_x)
    return worst >= 0.0, abs(worst) < AMBIGUOUS_BAND


def lattice(grid_n: int) -> list[float]:
    """The sweep axis: grid_n evenly spaced points from 0.5 to 1 inclusive."""
    return [0.5 + 0.5 * i / (grid_n - 1) for i in range(grid_n)]
