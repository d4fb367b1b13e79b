"""Independent oracles and random generators shared by the test modules.

The oracles deliberately avoid the library's own code paths: spectra come
from a dense eigensolve of the reduced density matrix (the package uses SVD),
entropies from a plain Python loop, and the resource boundary from a brute
grid scan (the package uses the closed form), and pointer-state top
eigenvalues from an index-loop build and a dense eigensolve (the package uses
a closed form for the family and a batched build from the Bell matrices
otherwise). ``RecordingWriter`` stands in for a text file, or wraps one, to
show how output reaches it; ``NullWriter`` discards it;
``fail_on_second_block`` stops a sweep part way through; ``child_env``
runs the package in a child process; ``public_callables`` lists the public
callables by name; and ``ODD_SCALARS`` and ``ODD_VALUES`` are the odd inputs
every public parameter is driven with.
"""

import datetime
import itertools
import math
import os
from decimal import Decimal
from fractions import Fraction

import numpy as np

import entdisc.sweep
from entdisc import ProbVector, PureState
from entdisc.sweep import CSV_CHUNK_ROWS


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


def family_member_matrices(a2: float, c2: float) -> list:
    """The family's 2x2 coefficient matrices, written out from its definition."""
    a, b, c, d = math.sqrt(a2), math.sqrt(1.0 - a2), math.sqrt(c2), math.sqrt(1.0 - c2)
    return [[[a, 0.0], [0.0, b]], [[b, 0.0], [0.0, -a]], [[0.0, c], [d, 0.0]], [[0.0, d], [-c, 0.0]]]


def loop_pointer_spectrum(members, probs) -> np.ndarray:
    """Pointer-state spectrum, ascending, by an index-loop build and a dense eigensolve.

    Member k (a 2x2 coefficient matrix, real or complex) is weighted by
    sqrt(probs[k]) and paired with the k-th Bell state; the AC:BD composite is
    filled entry by entry and the spectrum is that of M M^dagger.
    """
    bell = family_member_matrices(0.5, 0.5)
    m = np.zeros((4, 4), dtype=complex)
    for k, (psi, p) in enumerate(zip(members, probs)):
        for i, j, x, y in itertools.product(range(2), repeat=4):
            m[2 * i + x, 2 * j + y] += math.sqrt(p) * psi[i][j] * bell[k][x][y]
    return np.linalg.eigvalsh(m @ m.conj().T)


def loop_lambda_max(members, probs) -> float:
    """Top eigenvalue lambda_1 of ``loop_pointer_spectrum``."""
    return float(loop_pointer_spectrum(members, probs)[-1])


class RecordingWriter:
    """A text sink that keeps every string passed to ``write``, and passes it on to ``target`` if one is given."""

    def __init__(self, target=None):
        self.writes, self.target = [], target

    def write(self, text):
        self.writes.append(text)
        return len(text) if self.target is None else self.target.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        if self.target is not None:
            self.target.close()


def assert_block_writes(writes, text: str) -> None:
    """``writes`` are the sweep CSV ``text`` in one write per CSV_CHUNK_ROWS rows, the header riding on the first."""
    rows = text.count("\n") - 1
    assert len(writes) == max(-(-rows // CSV_CHUNK_ROWS), 1)
    assert [w.count("\n") for w in writes] == [
        min(CSV_CHUNK_ROWS, rows - start) + (start == 0) for start in range(0, max(rows, 1), CSV_CHUNK_ROWS)
    ]
    assert "".join(writes) == text


class NullWriter:
    """A text sink that drops what it is given, so only the writer's own memory shows."""

    def write(self, text):
        return len(text)


def fail_on_second_block(monkeypatch, exc_type) -> None:
    """Make the sweep kernel raise ``exc_type`` when it is asked for its second block."""
    blocks = []

    def scan(*args, _original=entdisc.sweep._scan_columns):
        blocks.append(args[-1])
        if len(blocks) == 2:
            raise exc_type("stopped")
        return _original(*args)

    monkeypatch.setattr(entdisc.sweep, "_scan_columns", scan)


def public_callables() -> dict:
    """Each public callable by name, a public classmethod as ``Class.method``; exception types are left out."""
    found = {}
    for name in entdisc.__all__:
        obj = getattr(entdisc, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        found[name] = obj
        for attr, raw in vars(obj).items() if isinstance(obj, type) else ():
            if isinstance(raw, classmethod) and not attr.startswith("_"):
                found[f"{name}.{attr}"] = getattr(obj, attr)
    return found


def child_env() -> dict:
    """The environment for a child Python process that imports this checkout's ``entdisc``."""
    src = os.path.dirname(entdisc.__path__[0])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


# One sample of each scalar type numpy reads differently (the ints at and beyond the edges of int64 and uint64), and
# the other odd scalars a caller may pass: None, bools, huge ints, NaN and infinities, complex, text, bytes,
# Fraction, Decimal and time values.
ODD_SCALARS = [None, True, False, np.True_, 0, 1, -1, 10**20, 10**400, 10**5000, 2**70, -(2**63), -(2**63) - 1,
               2**64 - 1, 2**64, np.uint64(5), 1.5, -0.0, math.nan, math.inf, -math.inf, np.float16(0.5),
               np.float32(1.5), 1j, np.complex64(1j), "0.5", "", b"0.5", Fraction(1, 2), Decimal("0.5"),
               np.datetime64(1, "s"), np.timedelta64(2), np.timedelta64(0), datetime.timedelta(seconds=1)]

# The scalars and the odd containers: 0-d and 2-d arrays, object, masked, text, time and bool arrays, sets, dicts,
# iterators, ranges, empty, nested and ragged lists, and arrays of clashing shapes that numpy cannot stack. A draw
# is a deep copy, so an iterator is fresh each time.
ODD_VALUES = ODD_SCALARS + [
    np.array(0.5), np.array(1j), np.zeros((2, 2)), np.eye(4), np.array([0.5, 0.5]), np.array([0.5, "0.5"], object),
    np.array([0.5, 0.5], object), np.ma.masked_array([0.5, 0.5], mask=[False, True]), np.array(["assist", "preserve"]),
    np.zeros(4, "m8"), np.zeros(2, "M8[s]"), np.array([True, False]), {0.5}, {0, 1, 2}, {0: 0.5, 1: 0.5}, {},
    iter([0.25] * 4), iter(range(3)), range(3), [], (), [0.5, 0.5], [[0.5], [0.5]], [[1, 0], [0]], "abcd",
    [np.zeros((2, 2)), np.zeros((2, 3))],
]
