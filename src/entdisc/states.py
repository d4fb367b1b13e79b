"""Bipartite pure states, Schmidt decompositions, and entanglement measures.

Amplitudes are stored row-major over (a_index, b_index): the amplitude of
|i>_A |j>_B sits at position i * dim_b + j. That convention makes the
coefficient-matrix reshape used by the Schmidt decomposition unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectra import (DEFAULT_TOL, ProbVector, _add_in_order, _entropy_rows, _is_index, _is_real, _numbers, _shown,
                      check_probabilities)

__all__ = [
    "BellFamily",
    "DistinguishabilityBound",
    "Ensemble",
    "PureState",
    "SchmidtDecomposition",
    "bell_states",
    "distinguishability_bound",
    "geometric_measure",
    "global_robustness",
    "reduced_spectrum",
    "relative_entropy_ent",
    "schmidt",
]


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized pure state on a bipartite cut with declared local dimensions.

    The constructor refuses amplitudes that are not numbers (``_numbers``), checks dimensions,
    finiteness and norm, and keeps a read-only complex copy; ``_derived`` wraps states the package builds normalized,
    unchecked. Instances are immutable.
    """

    amplitudes: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        amps = _numbers(self.amplitudes, "state amplitudes", complex).flatten()
        if not (_is_index(self.dim_a) and self.dim_a >= 1 and _is_index(self.dim_b) and self.dim_b >= 1):
            shown = f"{_shown(self.dim_a)} and {_shown(self.dim_b)}"
            raise ValidationError(f"local dimensions must be positive integers, got {shown}")
        if amps.size != self.dim_a * self.dim_b:
            raise ValidationError(f"got {amps.size} amplitudes for dimensions {_shown(self.dim_a)}x{_shown(self.dim_b)}")
        norm2 = float(np.vdot(amps, amps).real)
        # A NaN or infinite amplitude makes norm^2 non-finite; so do finite ones whose squares overflow.
        if not math.isfinite(norm2) and not np.isfinite(amps).all():
            raise ValidationError("state amplitudes must be finite")
        if abs(norm2 - 1.0) > DEFAULT_TOL:
            raise ValidationError(f"state norm^2 is {norm2!r}, expected 1 within {DEFAULT_TOL:.0e}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _derived(cls, amps: np.ndarray, dim_a: int, dim_b: int) -> "PureState":
        """Wrap new, normalized complex amplitudes of positive integer dimensions dim_a x dim_b, unchecked."""
        amps = amps.ravel()
        amps.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(amplitudes=amps, dim_a=dim_a, dim_b=dim_b)
        return state

    @classmethod
    def from_matrix(cls, coeffs: np.ndarray) -> "PureState":
        """Build a state from its dim_a x dim_b coefficient matrix."""
        coeffs = _numbers(coeffs, "state amplitudes", complex)
        if coeffs.ndim != 2:
            raise ValidationError("coefficient matrix must be two-dimensional")
        return cls(coeffs.ravel(), coeffs.shape[0], coeffs.shape[1])

    def coefficient_matrix(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dim_a, self.dim_b)

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if (self.dim_a, self.dim_b) != (other.dim_a, other.dim_b):
            raise ValidationError("overlap requires matching local dimensions")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Schmidt probabilities and the matching orthonormal local bases.

    ``basis_a[k]`` / ``basis_b[k]`` are the local vectors paired with
    ``probs.entries[k]``. Bases are only unique up to degenerate-subspace
    rotations; the contract-bearing guarantee is that ``reconstruct()``
    reproduces the original state.
    """

    probs: ProbVector
    basis_a: np.ndarray
    basis_b: np.ndarray

    def reconstruct(self) -> PureState:
        coeffs = np.sqrt(self.probs.entries)
        matrix = np.einsum("k,ki,kj->ij", coeffs, self.basis_a, self.basis_b)
        return PureState.from_matrix(matrix)


def schmidt(state: PureState) -> SchmidtDecomposition:
    """Schmidt-decompose a bipartite pure state.

    The amplitudes are reshaped to a dim_a x dim_b matrix and factored by
    singular value decomposition; the squared singular values are the Schmidt
    probabilities, returned in descending order together with the paired
    local basis vectors.
    """
    matrix = state.coefficient_matrix()
    u, sing, vh = np.linalg.svd(matrix, full_matrices=False)
    probs = ProbVector(sing**2)
    basis_a = np.ascontiguousarray(u.T)
    basis_b = np.ascontiguousarray(vh)
    basis_a.setflags(write=False)
    basis_b.setflags(write=False)
    return SchmidtDecomposition(probs=probs, basis_a=basis_a, basis_b=basis_b)


def reduced_spectrum(state: PureState) -> ProbVector:
    """Eigenvalues of the reduced density matrix, sorted descending.

    Computed on the first call and kept on the immutable state, so later
    calls return the same vector.
    """
    spectrum = getattr(state, "_spectrum", None)
    return reduced_spectra([state])[0] if spectrum is None else spectrum


def reduced_spectra(states: list[PureState]) -> list[ProbVector]:
    """``reduced_spectrum`` of states sharing one shape, with one stacked SVD for those not yet computed."""
    todo = [s for s in states if getattr(s, "_spectrum", None) is None]
    if todo:
        # LAPACK returns the singular values in descending order, so their squares need no sort.
        sing = np.linalg.svd(np.array([s.coefficient_matrix() for s in todo]), compute_uv=False)
        for state, row in zip(todo, sing):
            object.__setattr__(state, "_spectrum", ProbVector._derived(row**2))
    return [s._spectrum for s in states]


def family_matrices(a: float, b: float, c: float, d: float) -> np.ndarray:
    """The four members' coefficient matrices, shape (4, 2, 2)."""
    return np.array([[[a, 0.0], [0.0, b]], [[b, 0.0], [0.0, -a]], [[0.0, c], [d, 0.0]], [[0.0, d], [-c, 0.0]]])


# The four Bell states are the family at a = b = c = d = 1/sqrt(2).
BELL_MATRICES = family_matrices(*(1.0 / np.sqrt(2.0),) * 4)
BELL_MATRICES.setflags(write=False)
_BELL_STATES = tuple(PureState(m, 2, 2) for m in BELL_MATRICES)


def check_family_priors(probs, count: int) -> list[float]:
    """Validate ``count`` priors for family members; None means equal priors."""
    if probs is None:
        return [1.0 / count] * count
    try:
        given = len(probs)
    except TypeError:
        raise ValidationError(f"expected a list of {count} probabilities, got {_shown(probs)}") from None
    if given != count:
        raise ValidationError(f"expected {count} probabilities, got {given}")
    return check_probabilities(probs)


def check_which(which) -> tuple[int, ...]:
    """Validate a three-member subset of the family as distinct indices in 0..3."""
    try:
        which = tuple(which)
    except TypeError:
        raise ValidationError(f"which={_shown(which)} must be three distinct indices in 0..3") from None
    if len(which) != 3 or not all(_is_index(i) and 0 <= i < 4 for i in which) or len(set(which)) != 3:
        raise ValidationError(f"which=({', '.join(map(_shown, which))}) must be three distinct indices in 0..3")
    return tuple(map(int, which))


@dataclass(frozen=True)
class BellFamily:
    """The four-state family a|00>+b|11>, b|00>-a|11>, c|01>+d|10>, d|01>-c|10>.

    Stored as the squared Schmidt parameters a2 = a^2 and c2 = c^2 in [0.5, 1];
    the amplitudes a, b, c, d (a >= b >= 0, c >= d >= 0) are derived once.
    """

    a2: float
    c2: float

    def __post_init__(self):
        a2, c2 = self.a2, self.c2
        if not (_is_real(a2) and _is_real(c2)):
            raise ValidationError(f"a2={_shown(a2)} and c2={_shown(c2)} must be numbers")
        for name, value in (("a2", a2), ("c2", c2)):
            if not 0.5 <= value <= 1.0:
                raise ValidationError(f"{name}={value!r} outside [0.5, 1]")
        self.__dict__.update(a=math.sqrt(a2), b=math.sqrt(1.0 - a2), c=math.sqrt(c2), d=math.sqrt(1.0 - c2))

    @classmethod
    def from_squared(cls, a2: float, c2: float) -> "BellFamily":
        """Construct from the squared Schmidt parameters a^2, c^2 in [0.5, 1]."""
        return cls(a2, c2)

    def states(self) -> list[PureState]:
        """The four mutually orthogonal family members as 2x2 pure states, normalized as a^2 + b^2 = c^2 + d^2 = 1."""
        matrices = np.asarray(family_matrices(self.a, self.b, self.c, self.d), dtype=complex)
        return [PureState._derived(m, 2, 2) for m in matrices]

    def spectra(self) -> list[ProbVector]:
        """Reduced spectra of the four members: (a2, 1 - a2) twice, (c2, 1 - c2) twice, descending as a2, c2 >= 1/2."""
        first, second = (ProbVector._derived(np.array([x, 1.0 - x], dtype=float)) for x in (self.a2, self.c2))
        return [first, first, second, second]


def bell_states() -> list[PureState]:
    """The four maximally entangled two-qubit states.

    Order matters downstream: pointer constructions pair the i-th ensemble
    member with the i-th state of this list. The states are built once and
    shared (they are immutable); each call returns a new list.
    """
    return list(_BELL_STATES)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """A list of (probability, state) pairs sharing one bipartite cut."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValidationError("ensemble must have at least one member")
        for i, member in enumerate(members):
            if not (isinstance(member, (tuple, list)) and len(member) == 2 and isinstance(member[1], PureState)):
                raise ValidationError(f"ensemble member {i} must be a (probability, PureState) pair")
        probs = check_probabilities([p for p, _ in members])
        states = [s for _, s in members]
        if len({(s.dim_a, s.dim_b) for s in states}) != 1:
            raise ValidationError("all ensemble states must share the same local dimensions")
        object.__setattr__(self, "members", tuple(zip(probs, states)))

    @classmethod
    def equal_priors(cls, states: list[PureState]) -> "Ensemble":
        n = len(states)
        return cls(tuple((1.0 / n, s) for s in states))

    @property
    def probs(self) -> list[float]:
        return [p for p, _ in self.members]

    @property
    def states(self) -> list[PureState]:
        return [s for _, s in self.members]

    @property
    def dim_a(self) -> int:
        return self.members[0][1].dim_a

    @property
    def dim_b(self) -> int:
        return self.members[0][1].dim_b


def _measure_rows(lam: np.ndarray) -> tuple[list[float], list[float], list[float]]:
    """Robustness, entropy in bits and geometric measure of each row of a (members x d) descending spectrum array."""
    # Sums are squared as Python floats (C pow); an array's ** 2 can be an ulp off.
    rob = [max(v**2 - 1.0, 0.0) + 0.0 for v in np.sqrt(lam).sum(axis=1).tolist()]
    return rob, _entropy_rows(lam), [max(-v, 0.0) + 0.0 for v in np.log2(lam[:, 0]).tolist()]


def global_robustness(state: PureState) -> float:
    """Global robustness of entanglement, (sum_i sqrt(lambda_i))^2 - 1.

    The closed form holds for bipartite pure states; it vanishes exactly on
    product states.
    """
    return _measure_rows(reduced_spectrum(state).entries[None])[0][0]


def relative_entropy_ent(state: PureState) -> float:
    """Relative entropy of entanglement; equals the entanglement entropy for pure states."""
    return _measure_rows(reduced_spectrum(state).entries[None])[1][0]


def geometric_measure(state: PureState) -> float:
    """Geometric measure of entanglement, -log2 of the largest Schmidt probability."""
    return _measure_rows(reduced_spectrum(state).entries[None])[2][0]


@dataclass(frozen=True)
class DistinguishabilityBound:
    """Upper bounds on how many ensemble members are locally distinguishable."""

    n_robustness: float
    n_rel_entropy: float
    n_geometric: float


def distinguishability_bound(ensemble: Ensemble) -> DistinguishabilityBound:
    """Bound the number of perfectly LOCC-distinguishable states three ways.

    Each bound is D divided by the arithmetic mean (over the ensemble
    members) of an entanglement-derived weight: 1 + robustness, 2^(relative
    entropy), and 2^(geometric measure). The three results are reported
    side by side; the robustness bound is always the tightest.
    """
    rob, ent, geo = _measure_rows(np.array([v.entries for v in reduced_spectra(ensemble.states)]))
    weights = ([1.0 + v for v in rob], [2.0**v for v in ent], [2.0**v for v in geo])
    return DistinguishabilityBound(*(ensemble.dim_a * ensemble.dim_b / (_add_in_order(w) / len(w)) for w in weights))
