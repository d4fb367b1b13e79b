"""Probability vectors, the majorization preorder, and entropies.

Everything downstream (LOCC convertibility tests, discrimination feasibility,
entanglement costs) reduces to comparisons between sorted probability vectors,
so this module is the numerical core of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, zip_longest
from typing import Iterable

import numpy as np

from .errors import ValidationError

__all__ = [
    "DEFAULT_TOL",
    "ProbVector",
    "binary_entropy",
    "entropy_bits",
    "majorizes",
    "mix",
    "tensor",
]

# Absolute tolerance for partial-sum comparisons and normalization checks, and
# for an entry's bounds: negatives above -DEFAULT_TOL are numerical noise
# (eigensolvers routinely return -1e-16) and clamped to zero. Amplitudes are
# O(1), so double precision leaves ample headroom.
DEFAULT_TOL = 1e-9

# Booleans are numbers to Python and numpy; where the package means a real value it refuses both types.
_BOOL_TYPES = frozenset((bool, np.bool_))
_FLOAT = np.dtype(float)


def _is_index(value) -> bool:
    """An integer that is not a bool: the one rule for dimensions, sizes and member indices."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number: no bool, a value numpy holds as kind i, u or f (an index in int64 or uint64 range); floats first."""
    return type(value) is float or isinstance(value, (float, np.floating)) or _is_index(value) and -(2**63) <= value < 2**64


def _shown(value) -> str:
    """A value as a refusal names it: a real number by its repr, anything else by its type, so the line stays short."""
    return repr(value) if _is_real(value) else f"<{type(value).__name__}>"


def check_tol(tol) -> float:
    """A comparison tolerance: a finite number >= 0 that is not a bool, the one rule for every verdict and --tol."""
    if not (_is_real(tol) and 0.0 <= tol < math.inf):
        raise ValidationError(f"tolerance must be a finite number >= 0, got {_shown(tol)}")
    return float(tol)  # a float16 or float32 tolerance would round every sum it is added to


def _kinds(arr: np.ndarray) -> set[str]:
    """The dtype kind of an array, or of each entry of an object array: the one test of what values an input holds."""
    return {arr.dtype.kind} if arr.dtype != object else {np.asarray(v).dtype.kind for v in arr.flat}


def _add_in_order(values, arr=None):
    """Add floats or float columns left to right in a loop: the one float sum (builtin ``sum`` compensates from 3.12).

    Given ``arr``, the values as a float array, this is the probability total: the loop below 8 entries, where numpy
    adds in order too, and ``arr.sum()`` from 8 up (its bits pinned by ``TestArrayRouteOracle``).
    """
    if arr is not None and arr.size >= 8:
        return float(arr.sum())
    total = 0.0
    for value in values:
        total += value
    return total


def check_probabilities(values) -> list[float]:
    """Validate probabilities given in any order, by one route at every size; returns them as a list of Python floats.

    Entries must be finite numbers within DEFAULT_TOL of [0, 1], and must sum to 1 within DEFAULT_TOL; negatives
    inside the tolerance are clamped to zero, with np.clip's zero sign. A bool, str or bytes entry or array is refused
    as a non-number, though numpy would read it; complex, timedelta64, datetime64 and object values (None, a Fraction,
    an int beyond 64 bits) before numpy casts them: the one rule of ``_is_real`` and ``_kinds``.
    The one size rule is the total's (``_add_in_order``), pinned with every byte and message by TestArrayRouteOracle.
    """
    reason = None
    try:
        arr = np.asarray(values)  # floats infer float64; only another dtype is judged by kind and converted again
        if arr.dtype != _FLOAT:
            kinds = _kinds(arr)
            if not kinds.isdisjoint("cmM"):  # left unconverted: the cast would drop an imaginary part or a time unit
                reason = "probabilities must be real numbers, not complex or time values"
            elif "O" in kinds:  # so too None, a Fraction or Decimal, and an int beyond 64 bits, which may overflow
                reason = "probabilities must be numbers, not None, other objects or integers beyond 64 bits"
            else:
                reason = None if kinds.isdisjoint("US") else "probabilities must be numbers, not strings or bytes"
                arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"probabilities must be numbers: {exc}") from None
    if arr.ndim != 1:
        raise ValidationError("probabilities must be a flat list of numbers")
    if arr.size == 0:
        raise ValidationError("need at least one probability")
    if reason:
        raise ValidationError(reason)
    entries = arr.tolist()
    if not all(map(math.isfinite, entries)):
        raise ValidationError("probabilities must be finite")
    low, high = min(entries), max(entries)
    if low <= 0.0 or high >= 1.0:  # else no entry is a bool, which converts to 0.0 or 1.0
        kinds = (values.dtype.type,) if isinstance(values, np.ndarray) and values.dtype != object else map(type, values)
        if not _BOOL_TYPES.isdisjoint(kinds):
            raise ValidationError("probabilities must be numbers, not booleans")
    if low < 0.0:
        if low < -DEFAULT_TOL:
            raise ValidationError(f"probability {low:.3e} is negative beyond tolerance {DEFAULT_TOL:.0e}")
        entries = [v if v > 0.0 else 0.0 for v in entries]
        arr = np.clip(arr, 0.0, None)
    # The entries are now nonnegative, so the sum is at least the largest:
    # this rejects only what the sum check would, before huge entries can
    # overflow the sum.
    if high > 1.0 + DEFAULT_TOL:
        raise ValidationError(f"probability {high!r} exceeds 1 beyond tolerance {DEFAULT_TOL:.0e}")
    total = _add_in_order(entries, arr)
    if not abs(total - 1.0) <= DEFAULT_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, expected 1 within {DEFAULT_TOL:.0e}")
    return entries


@dataclass(frozen=True, eq=False)
class ProbVector:
    """A probability vector stored in canonical non-increasing order.

    The constructor clamps, validates and sorts the entries once, so partial-sum comparisons never have to re-sort;
    it sorts the checked floats one way at every size, with np.sort(kind="stable")[::-1]'s bytes. ``_derived`` wraps
    values derived from checked objects, checking only their total. Instances are immutable.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(sorted(check_probabilities(self.entries))[::-1])
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def _derived(cls, arr: np.ndarray) -> "ProbVector":
        """Wrap a new float array, nonnegative and descending by construction; checks its total as ProbVector does."""
        if not abs(_add_in_order(arr.tolist(), arr) - 1.0) <= DEFAULT_TOL:
            check_probabilities(arr)  # raises, with the public constructor's message
        arr.setflags(write=False)
        vec = object.__new__(cls)
        object.__setattr__(vec, "entries", arr)
        return vec

    @property
    def dim(self) -> int:
        return int(self.entries.size)

    def __len__(self) -> int:
        return self.dim

    def __iter__(self):
        return iter(self.entries)

    def __repr__(self) -> str:
        body = ", ".join(format(v, ".12g") for v in self.entries)
        return f"ProbVector([{body}])"


def majorizes(x: ProbVector, y: ProbVector, tol: float = DEFAULT_TOL) -> bool:
    """Return True iff ``x`` is majorized by ``y``: the one partial-sum test.

    The shorter vector is zero-padded before comparing partial sums of the
    descending-sorted entries; total-sum equality holds by the normalization
    invariant, so the last sum is skipped. The sums run on Python floats in
    the order ``np.cumsum`` adds, so verdicts match an array test bit for bit.
    """
    tol = check_tol(tol)
    xs, ys = x.entries.tolist(), y.entries.tolist()
    sum_x = sum_y = 0.0
    for a, b in islice(zip_longest(xs, ys, fillvalue=0.0), max(len(xs), len(ys)) - 1):
        sum_x += a
        sum_y += b
        if sum_x > sum_y + tol:
            return False
    return True


def tensor(x: ProbVector, y: ProbVector) -> ProbVector:
    """All pairwise products of the entries, re-sorted descending."""
    return ProbVector(np.outer(x.entries, y.entries).ravel())


def mix(weighted: Iterable[tuple[float, ProbVector]]) -> ProbVector:
    """Weighted component-wise average of sorted vectors.

    Each input vector is already in descending order (the ProbVector
    invariant); all are zero-padded to the largest dimension and averaged
    component-wise with the given weights, so the average is descending too.
    Each entry's weighted terms add in member order on Python floats, at every size.
    """
    pairs = list(weighted)
    weights = check_probabilities([p for p, _ in pairs])
    out = [0.0] * max(v.dim for _, v in pairs)
    for w, (_, v) in zip(weights, pairs):
        out[: v.dim] = [t + w * x for t, x in zip(out, v.entries.tolist())]
    return ProbVector._derived(np.array(out))


def entropy_terms(values):
    """Elementwise -v*log2(v) for v >= 0, with 0*log(0) = 0: the one entropy rule, for arrays and scalars."""
    # Adding (v == 0) turns only the zeros into ones, whose log is 0, and
    # costs a scalar far less than np.where; 0.0 - x never yields -0.0.
    return 0.0 - values * np.log2(values + (values == 0.0))


def _binary_entropy_terms(p):
    """Elementwise entropy in bits of (p, 1 - p) for p in [0, 1], unchecked: the one binary-entropy formula."""
    return entropy_terms(p) + entropy_terms(1.0 - p)


def _entropy_rows(lam: np.ndarray) -> list[float]:
    """Entropy in bits, clamped at 0, of each row of a (rows x d) array of descending spectra: the one entropy sum."""
    # Zero terms add nothing below 8 entries, where numpy adds in order; from 8 up a row sums only its positive terms.
    ent = entropy_terms(lam).sum(axis=1).tolist() if lam.shape[1] < 8 else [entropy_terms(r[r > 0.0]).sum() for r in lam]
    return [max(float(v), 0.0) for v in ent]


def entropy_bits(x: ProbVector) -> float:
    """Shannon entropy of the vector in bits, with 0*log(0) = 0, clamped at 0."""
    return _entropy_rows(x.entries[None])[0]


def binary_entropy(p: float) -> float:
    """Entropy in bits of the two-outcome distribution (p, 1-p)."""
    if not _is_real(p):
        raise ValidationError(f"binary entropy argument {_shown(p)} is not a number")
    if not -DEFAULT_TOL <= p <= 1.0 + DEFAULT_TOL:
        raise ValidationError(f"binary entropy argument {p!r} outside [0, 1]")
    return float(_binary_entropy_terms(min(max(float(p), 0.0), 1.0)))
