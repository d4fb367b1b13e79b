"""Independent oracles and random generators shared by the test modules.

The oracles deliberately avoid the library's own code paths: spectra come
from a dense eigensolve of the reduced density matrix (the package uses SVD),
entropies from a plain Python loop, and the resource boundary from a brute
grid scan (the package uses the closed form). ``RecordingWriter`` stands in
for a text file to show how output reaches it.
"""

import math

import numpy as np

from entdisc import ProbVector, PureState


def rdm_spectrum(state: PureState) -> np.ndarray:
    """Reduced-density-matrix eigenvalues via dense Hermitian eigensolve, descending."""
    m = state.coefficient_matrix()
    rho = m @ m.conj().T
    eigs = np.linalg.eigvalsh(rho)[::-1]
    return np.clip(eigs.real, 0.0, None)


def entropy_direct(values) -> float:
    """Plain-loop Shannon entropy in bits."""
    total = 0.0
    for v in values:
        if v > 0.0:
            total -= v * math.log2(v)
    return total


def random_pure_state(rng, dim_a: int, dim_b: int) -> PureState:
    amps = rng.standard_normal(dim_a * dim_b) + 1j * rng.standard_normal(dim_a * dim_b)
    return PureState(amps / np.linalg.norm(amps), dim_a, dim_b)


def random_prob_vector(rng, dim: int) -> ProbVector:
    return ProbVector(rng.dirichlet(np.ones(dim)))


def random_unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def majorized_image(rng, v: ProbVector, n_perms: int = 4) -> ProbVector:
    """A vector guaranteed to be majorized by ``v``.

    Averaging permutations of v with convex weights applies a doubly
    stochastic map, which can only flatten the vector.
    """
    weights = rng.dirichlet(np.ones(n_perms))
    out = np.zeros(v.dim)
    for w in weights:
        out += w * rng.permutation(v.entries)
    return ProbVector(out)


def alpha2_max_scan(lam: np.ndarray, step: float = 1e-4) -> float:
    """Brute-force largest feasible squared resource coefficient.

    Scans alpha^2 downward from 1 on a uniform grid and returns the first
    value whose full partial-sum test against (1/2, 1/2, 0, ...) passes.
    """
    target = np.zeros(2 * lam.size)
    target[0] = target[1] = 0.5
    target_cumsum = np.cumsum(target)
    for alpha2 in np.arange(1.0, 0.5 - step / 2, -step):
        cand = np.sort(np.concatenate((alpha2 * lam, (1.0 - alpha2) * lam)))[::-1]
        if np.all(np.cumsum(cand) <= target_cumsum + 1e-12):
            return float(alpha2)
    return float("nan")


class RecordingWriter:
    """A text sink that keeps every string passed to ``write``."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
