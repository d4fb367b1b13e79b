"""Feasibility and entanglement-cost analysis of local state discrimination.

The central device is the pointer construction: a discrimination problem over
an ensemble {p_i, psi_i} on the A:B cut is encoded as the composite state
sum_i sqrt(p_i) |psi_i>_AB |phi_i>_CD with mutually orthogonal pointers
phi_i, read as a bipartite state on the AC:BD cut. Distinguishing the
ensemble then implies an ensemble transformation of the composite into the
pointers, which majorization decides. ``pointer_state`` is the one code that
builds the composite; general ensembles are decided from its top eigenvalue
with Bell pointers. The family's top eigenvalue has a closed form for every
member order and subset (``family_lambda_max``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError
from .spectra import (
    DEFAULT_TOL,
    ProbVector,
    binary_entropy,
    check_tol,
    entropy_bits,
    majorizes,
    mix,
    tensor,
)
from .states import (
    BellFamily,
    Ensemble,
    PureState,
    bell_states,
    check_family_priors,
    check_which,
)

__all__ = [
    "CostReport",
    "Residual",
    "assisted_alpha2_max",
    "closed_form_lhs",
    "conjugation_probe",
    "ensemble_discrimination_feasible",
    "locc_ensemble_feasible",
    "partial_inner_product",
    "perfect_discrimination_feasible",
    "pointer_state",
    "preserve_cost",
    "preserve_spectrum",
    "three_state_feasible",
]

ZERO_NORM_TOL = 1e-12


def pointer_state(ensemble: Ensemble, pointers: Sequence[PureState]) -> PureState:
    """Attach one orthogonal pointer per ensemble member.

    Returns sum_i sqrt(p_i) |psi_i>_AB |phi_i>_CD as a pure state on the
    AC:BD cut: the A and C indices are grouped on one side (row-major, A
    outer), B and D on the other. Orthonormal pointers make the result
    normalized for any ensemble.
    """
    members = ensemble.members
    if len(pointers) != len(members):
        raise ValidationError(f"need one pointer per member, got {len(pointers)} for {len(members)}")
    dims = {(p.dim_a, p.dim_b) for p in pointers}
    if len(dims) != 1:
        raise ValidationError("all pointers must share the same local dimensions")
    for i in range(len(pointers)):
        for j in range(i + 1, len(pointers)):
            if abs(pointers[i].overlap(pointers[j])) > DEFAULT_TOL:
                raise ValidationError(f"pointers {i} and {j} are not orthogonal")
    # Axes (member, a, c, b, d), summed over members in order; the AC and BD pairs are adjacent, so the reshape is a view.
    state = members[0][1]
    psi = np.array([s.amplitudes for _, s in members]).reshape(-1, state.dim_a, 1, state.dim_b, 1)
    phi = np.array([p.amplitudes for p in pointers]).reshape(-1, 1, pointers[0].dim_a, 1, pointers[0].dim_b)
    roots = np.array([math.sqrt(p) for p, _ in members]).reshape(-1, 1, 1, 1, 1)
    composite = (psi * phi * roots).sum(axis=0)
    dim_a, dim_c, dim_b, dim_d = composite.shape
    matrix = composite.reshape(dim_a * dim_c, dim_b * dim_d)
    # The members', priors' and pointers' own tolerances can add up past DEFAULT_TOL: renormalize only then.
    norm2 = np.vdot(matrix, matrix).real
    matrix = matrix if abs(norm2 - 1.0) <= DEFAULT_TOL else matrix / np.sqrt(norm2)
    return PureState._derived(matrix, dim_a * dim_c, dim_b * dim_d)


def locc_ensemble_feasible(
    source: ProbVector,
    targets: Sequence[tuple[float, ProbVector]],
    tol: float = DEFAULT_TOL,
) -> bool:
    """Probabilistic LOCC convertibility into an ensemble of targets.

    Feasible iff the source spectrum is majorized by the probability-weighted
    average of the sorted target spectra.
    """
    return majorizes(source, mix(targets), tol)


def pointer_feasible(lam_max, tol: float = DEFAULT_TOL):
    """The Bell-pointer verdict from the top pointer-state eigenvalue, elementwise over arrays.

    Every Bell pointer's spectrum is (1/2, 1/2), so any priors mix to the target (1/2, 1/2, 0, ...),
    whose partial sums are (1/2, 1, 1, ...). Two or more entries of a spectrum sum to at most 1, so
    only the first partial sum can bind: the spectrum is majorized iff lambda_1 <= 1/2 + tol.
    """
    return lam_max <= 0.5 + check_tol(tol)


def ensemble_discrimination_feasible(ensemble: Ensemble, tol: float = DEFAULT_TOL) -> bool:
    """Can the ensemble's members be perfectly distinguished by LOCC alone?

    Attaches the i-th Bell state as the i-th member's pointer and tests the
    pointer state's top eigenvalue with ``pointer_feasible``. That eigenvalue
    comes from ``eigvalsh`` of M M^dagger, not from the singular values of M,
    but where lambda_1 is exactly 1/2 either can round it above 1/2 and flip
    the verdict at tol = 0: one member or an orthogonal pair with prior > 0 is clamped at 1/2.
    """
    pointers = bell_states()
    if len(ensemble.members) > len(pointers):
        raise ValidationError("at most 4 ensemble members are supported")
    m = pointer_state(ensemble, pointers[: len(ensemble.members)]).coefficient_matrix()
    lam, weighted = np.linalg.eigvalsh(m @ m.conj().T)[-1], [s for p, s in ensemble.members if p > 0.0]
    # lambda_1 <= 1/2 for one member and <= (1 + |<psi_0|psi_1>|) / 2 for two: orthogonal pairs must not round past 1/2.
    capped = len(weighted) == 1 or len(weighted) == 2 and abs(weighted[0].overlap(weighted[1])) <= DEFAULT_TOL
    return bool(pointer_feasible(min(lam, 0.5) if capped else lam, tol))


def perfect_discrimination_feasible(
    family: BellFamily, probs: Sequence[float] | None = None, tol: float = DEFAULT_TOL
) -> bool:
    """Can all four family members be perfectly distinguished by LOCC alone? Tests ``closed_form_lhs``."""
    return bool(pointer_feasible(closed_form_lhs(family, probs), tol))


@functools.lru_cache(maxsize=None)
def _order_class(order: tuple[int, ...]) -> tuple:
    """What ``family_lambda_max`` reads from a member order: whether each pair's members swap, the pointers
    i < j of members 0 and 1 and k < l of members 2 and 3, and the order's parity (a three-member order padded)."""
    if len(order) == 3:
        order = (*order, 6 - sum(order))
    slot = [order.index(member) for member in range(4)]
    odd = sum(x > y for n, x in enumerate(order) for y in order[n + 1 :]) % 2
    return slot[1] < slot[0], slot[3] < slot[2], tuple(sorted(slot[:2])), tuple(sorted(slot[2:])), odd


def family_lambda_max(a, b, c, d, probs: list[float], order: tuple[int, ...] = (0, 1, 2, 3)):
    """Top eigenvalue of the family's Bell-pointer state, clamped at 1 (1/2 in the W class or for a pair), elementwise.

    ``order[j]`` is the member on Bell pointer j and ``probs[j]`` its prior; a zero prior drops a member, so a
    three-member order gets the missing member on pointer 3 at prior 0. Relabelling (a, b) as (b, -a), or (c, d)
    as (d, -c), swaps a pair's members and negates one weight, and Paulis and a Hadamard on C and D permute the
    pointers up to sign: only the pointers i < j of members 0 and 1, k < l of members 2 and 3, and the parity of
    ``order`` (odd negates s_l) count. The real composite M has M (Z x S) = +-(Z x S) M, with S set by {i, j} in one
    of three classes: Z for {0, 1} and {2, 3}; X for {0, 2} and {1, 3}, which the Hadamard maps onto Z; and W = XZ
    for {0, 3} and {1, 2}. Z splits M into two real 2x2 blocks (the natural order's "X" matrix), and lambda_1 =
    B^2 / 8 for the larger block's hypot sum B at s = sqrt(probs), accurate to rounding even where
    (F + sqrt(F^2 - 4 det^2)) / 2 cancels. W^2 = -I makes M a complex 2x2 matrix: every eigenvalue of M M^T is
    doubled, so the unit trace caps lambda_1 at 1/2, and the 2x2 Hermitian formula gives it from the block's
    diagonal gap and off-diagonal entry (pointers taken as i, k, l, j).
    Equal priors in the natural order give (a + b + c + d)^2 / 8, summed in that order; at a = b = c = d it rounds
    to 1.0000000000000002, hence the clamp. The W class and any order with at most two nonzero priors (a pair) are
    clamped at their cap of 1/2, which their formulas, like a dense eigensolve, can round past by an ulp.
    A call on one point's floats gives the array call's element bit for bit: squares are products, as numpy squares
    arrays, since a scalar's ** 2 calls C pow, which misses x * x by an ulp for about 1 in 1000 x. Each order's class
    (``_order_class``) is worked out once, and the priors' roots are taken by ``math.sqrt`` (both correctly rounded).
    """
    if order == (0, 1, 2, 3) and probs == [0.25] * 4:
        total = a + b + c + d
        return np.minimum(total * total / 8.0, 1.0)
    swap_ab, swap_cd, (i, j), (k, l), odd = _order_class(order)
    probs = [*probs, 0.0] if len(order) == 3 else probs
    a, b = (b, -a) if swap_ab else (a, b)
    c, d = (d, -c) if swap_cd else (c, d)
    s = [math.sqrt(p) for p in probs]
    s_l = -s[l] if odd else s[l]
    if i + j == 3:
        gap = (probs[i] - probs[j]) * (a * a - b * b) + (probs[k] - probs[l]) * (c * c - d * d)
        off = np.hypot((s[i] * s[k] - s_l * s[j]) * (a * d + b * c), (s[k] * s[j] - s[i] * s_l) * (a * c - b * d))
        return np.minimum(0.25 + np.hypot(gap, 2.0 * off) / 4.0, 0.5)
    b03, b12 = (np.hypot((s[i] + t) * (a + b), (s[k] - u) * (c - d)) + np.hypot((s[i] - t) * (a - b), (s[k] + u) * (c + d))
                for t, u in ((s[j], s_l), (-s[j], -s_l)))
    top = np.maximum(b03, b12)
    return np.minimum(top * top / 8.0, 0.5 if probs.count(0.0) >= len(probs) - 2 else 1.0)


def closed_form_lhs(family: BellFamily, probs: Sequence[float] | None = None) -> float:
    """Top eigenvalue lambda_1 of the four-member pointer state (``family_lambda_max``); None means equal priors."""
    return float(family_lambda_max(family.a, family.b, family.c, family.d, check_family_priors(probs, 4)))


def three_state_feasible(
    family: BellFamily,
    which: Sequence[int] = (0, 1, 2),
    probs: Sequence[float] | None = None,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Feasibility of discriminating a three-member subset of the family.

    ``which`` selects three distinct member indices (zero-based). The chosen
    members are attached, in order, to the first three maximally entangled
    pointer states, and the missing one to the fourth at prior 0.
    """
    which = check_which(which)
    lam = family_lambda_max(family.a, family.b, family.c, family.d, check_family_priors(probs, 3), which)
    return bool(pointer_feasible(lam, tol))


@dataclass(frozen=True)
class CostReport:
    """Resource requirements for entanglement-assisted discrimination.

    ``alpha2_max`` is the largest admissible squared Schmidt coefficient of a
    two-term resource state: larger means a *less* entangled resource
    suffices. ``cost_ebits`` is the binary entropy of ``alpha2_max``.
    ``first_sum_bound`` (equal to ``alpha2_max``) and ``feasible`` (always
    true: alpha^2 = 1/2 always suffices) keep the report's fields stable.
    """

    alpha2_max: float
    cost_ebits: float
    first_sum_bound: float
    feasible: bool


def alpha2_max_from_lambda(lam_max):
    """Closed-form alpha^2_max = min(1, 1/(2 lambda_1)), elementwise over arrays.

    ``lam_max`` is the top eigenvalue of the pointer state. A top eigenvalue
    that passes the unassisted test (``pointer_feasible`` at DEFAULT_TOL)
    needs no resource, so alpha^2 is exactly 1, whichever side of 1/2 its
    round-off lands on.
    """
    return np.where(pointer_feasible(lam_max), 1.0, 0.5 / lam_max)


def assisted_alpha2_max(family: BellFamily) -> CostReport:
    """Weakest two-term resource that unlocks perfect four-state discrimination.

    The largest alpha^2 in [1/2, 1] such that the spectrum of
    resource x pointer-state, with equal priors, is majorized by the mixed
    pointer spectra (1/2, 1/2, 0, ...). As in ``pointer_feasible``, only the
    first partial sum binds: alpha^2 lambda_1 <= 1/2, giving
    alpha^2_max = min(1, 1/(2 lambda_1)) exactly (Jonathan & Plenio, PRL 83,
    1455 (1999), for a two-term target).
    Since lambda_1 <= 1, alpha^2 = 1/2 always suffices.

    The same argument shows the two-term model loses nothing: a resource r
    of any dimension is admissible iff r_1 <= 1/(2 lambda_1), and for
    t >= 1/2 the vector (t, 1-t) majorizes every r with r_1 <= t. Entropy is
    Schur-concave, so ``cost_ebits`` is the minimum over all resources.
    """
    alpha2 = float(alpha2_max_from_lambda(closed_form_lhs(family)))
    return CostReport(alpha2_max=alpha2, cost_ebits=binary_entropy(alpha2), first_sum_bound=alpha2, feasible=True)


def preserve_cap(t_a, t_c, probs: Sequence[float]):
    """(p0 + p1) t_a + (p2 + p3) t_c, elementwise: the priors' mixture of the pairs' sorted self-tensored spectra."""
    return (probs[0] + probs[1]) * t_a + (probs[2] + probs[3]) * t_c


def preserve_spectrum(family: BellFamily, probs: Sequence[float] | None = None) -> ProbVector:
    """Spectrum cap for a resource that lets discrimination keep the states intact.

    The probability-weighted mixture of each member's self-tensored reduced spectrum
    (``preserve_cap``). Any resource able to fund identification without degrading
    the identified state must have a spectrum majorized by this vector.
    """
    first, second = (tensor(s, s).entries for s in family.spectra()[::2])
    # A nonnegative mixture of two descending vectors is descending.
    return ProbVector._derived(preserve_cap(first, second, check_family_priors(probs, 4)))


def preserve_cost(family: BellFamily, probs: Sequence[float] | None = None) -> float:
    """Minimal e-bits for state-preserving discrimination.

    Entropy is Schur-concave, so every admissible resource spectrum carries
    at least the entropy of the cap vector, and the cap itself is admissible:
    its entropy is the exact minimum. Always within [0, 2] for this family.
    """
    return entropy_bits(preserve_spectrum(family, probs))


class Residual(NamedTuple):
    """Unnormalized contraction result: ``norm`` plus the normalized state.

    The probability weight of the branch is ``norm ** 2``. ``state`` is None
    when the contraction vanished.
    """

    norm: float
    state: PureState | None


def partial_inner_product(bra: PureState, joint: PureState) -> Residual:
    """Contract a joint state's first subsystem pair against ``bra``.

    ``joint`` lives on the cut (AB):(residual pair), both sides of the bra's
    total dimension. The result is the residual-pair state <bra|joint>, split
    as the bra is, returned with its norm so the branch probability norm^2 is
    recoverable.
    """
    dim_ab = bra.dim_a * bra.dim_b
    if (joint.dim_a, joint.dim_b) != (dim_ab, dim_ab):
        raise ValidationError(f"joint has dimensions {joint.dim_a}x{joint.dim_b}, expected {dim_ab}x{dim_ab}")
    residual = np.conj(bra.amplitudes) @ joint.coefficient_matrix()
    norm = float(np.linalg.norm(residual))
    if norm <= ZERO_NORM_TOL:
        return Residual(norm=0.0, state=None)
    return Residual(norm=norm, state=PureState(residual / norm, bra.dim_a, bra.dim_b))


def conjugation_probe() -> PureState:
    """The paper's two-qubit probe: a joint state whose partial inner products return conjugated inputs.

    Built as a product of one maximally entangled pair per qubit and
    regrouped onto the (AB):(mirror pair) cut. For any two-qubit bra psi,
    contracting against this probe yields psi's complex conjugate with norm 1/2.
    """
    u = np.eye(2) / np.sqrt(2)
    coeffs = np.einsum("ij,kl->ikjl", u, u).reshape(4, 4)
    return PureState.from_matrix(coeffs)
