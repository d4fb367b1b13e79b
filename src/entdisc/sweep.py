"""Parameter-grid scans over the family's (a^2, c^2) square, emitted as CSV.

Grid points are independent; the scans below evaluate them a block at a time,
whenever results are read or written, through the kernels the per-point calls
of :mod:`entdisc.discrimination` run: the family's closed-form lambda_1, in
the subset's member order for feasible3, and the preserving cap. Rows come in
deterministic row-major order (outer loop a^2, inner loop c^2), so repeated
runs produce byte-identical output.
"""

from __future__ import annotations

import errno
import os
import stat
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .discrimination import alpha2_max_from_lambda, family_lambda_max, pointer_feasible, preserve_cap
from .errors import ValidationError
from .spectra import _BOOL_TYPES, _add_in_order, _binary_entropy_terms, _is_index, binary_entropy, entropy_terms
from .states import BellFamily, check_family_priors, check_which

__all__ = [
    "CSV_HEADER",
    "SweepRecord",
    "avg_entanglement",
    "records_to_csv",
    "run_sweep",
    "write_csv",
]

SWEEP_MODES = ("assist", "preserve", "feasible3")

CSV_HEADER = "a2,c2,avg_ent_ebits,feasible_unassisted,alpha2_max,assist_cost_ebits,preserve_cost_ebits"

DEFAULT_GRID_N = 101

# Largest lattice per axis, since time grows with grid_n^2; 1001 is the
# largest grid the performance plan (ROADMAP aim 1) times.
MAX_GRID_N = 1001

_FIELDS = tuple(CSV_HEADER.split(","))

# Lattice points computed, formatted and written per block: bounds the arrays
# and Python objects alive at once, whatever the grid size, while keeping
# kernel batches large enough that per-call overhead does not show.
CSV_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class SweepRecord:
    """One grid point's outputs; unpopulated columns are None."""

    a2: float
    c2: float
    avg_ent_ebits: float
    feasible_unassisted: bool | None = None
    alpha2_max: float | None = None
    assist_cost_ebits: float | None = None
    preserve_cost_ebits: float | None = None


class SweepTable(Sequence):
    """Read-only sweep results over a range of lattice points, computed CSV_CHUNK_ROWS at a time when read.

    Behaves as a sequence of :class:`SweepRecord`: ``len``, iteration and
    integer indexes (negative ones too) build records on demand, and a slice
    returns another table over the sliced range. Only the scan's inputs are
    held, never an array the size of the lattice. Absent columns read as None.
    """

    def __init__(self, scan: tuple, points: range):
        self._scan, self._points = scan, points

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepTable(self._scan, self._points[index])
        k = self._points[index]
        return next(iter(SweepTable(self._scan, range(k, k + 1))))

    def __iter__(self) -> Iterator[SweepRecord]:
        for columns in self._blocks():
            yield from (SweepRecord(**dict(zip(columns, row))) for row in zip(*(c.tolist() for c in columns.values())))

    def __reversed__(self) -> Iterator[SweepRecord]:
        return iter(self[::-1])

    def _blocks(self, text: bool = False) -> Iterator[dict[str, np.ndarray]]:
        for start in range(0, len(self), CSV_CHUNK_ROWS):
            yield _scan_columns(*self._scan, self._points[start : start + CSV_CHUNK_ROWS], text)


def _mean_entropy(h_a, h_c, probs: Sequence[float], indices=range(4)):
    """Prior-weighted mean of the members' entropies (h_a, h_a, h_c, h_c) over ``indices``, elementwise."""
    return _add_in_order(p * (h_a, h_a, h_c, h_c)[i] for p, i in zip(probs, indices))


def avg_entanglement(family: BellFamily, probs: Sequence[float] | None = None) -> float:
    """Probability-weighted mean entanglement entropy of the four members."""
    return float(_mean_entropy(binary_entropy(family.a2), binary_entropy(family.c2), check_family_priors(probs, 4)))


def run_sweep(
    mode: str,
    grid_n: int = DEFAULT_GRID_N,
    probs: Sequence[float] | None = None,
    which: Sequence[int] = (0, 1, 2),
) -> SweepTable:
    """Evaluate one analysis mode on the uniform grid_n x grid_n lattice over [0.5, 1]^2.

    Returns a read-only sequence of records, computed when read. Modes:
      * ``assist``: unassisted feasibility plus the assisted-resource bound
        and its entropy cost (the resource bound itself always uses equal
        priors, matching ``assisted_alpha2_max``).
      * ``preserve``: entanglement cost of discrimination that keeps the
        identified state intact.
      * ``feasible3``: feasibility of discriminating the three-member subset
        ``which`` (priors default to 1/3 each). ``which`` is checked in every
        mode, but only this one uses it.
    """
    if mode not in SWEEP_MODES:
        raise ValidationError(f"unknown sweep mode {mode!r}; expected one of {SWEEP_MODES}")
    if not (_is_index(grid_n) and 2 <= grid_n <= MAX_GRID_N):
        raise ValidationError(f"grid_n must be between 2 and {MAX_GRID_N}, got {grid_n!r}")
    probs = check_family_priors(probs, 3 if mode == "feasible3" else 4)
    which = check_which(which)
    order = which if mode == "feasible3" else (0, 1, 2, 3)
    axis = np.linspace(0.5, 1.0, grid_n)
    return SweepTable((mode, axis, probs, order, np.array([*map(format_value, axis.tolist())], object)), range(grid_n**2))


def _scan_columns(mode: str, axis: np.ndarray, probs: list[float], order, axis_text, points: range, text: bool) -> dict:
    """One mode's columns at the flat lattice points ``points``: point k is (axis[k // n], axis[k % n]).

    Axis entropies are gathered and the rest is elementwise (``assist`` takes the closed-form lambda_1 at the
    given and at equal priors), so no value depends on the block. With ``text``, a2 and c2 hold their axis_text.
    """
    rows, cols = np.divmod(np.arange(points.start, points.stop, points.step), axis.size)
    a2, c2 = axis[rows], axis[cols]
    h = _binary_entropy_terms(axis)
    columns = {"a2": axis_text[rows] if text else a2, "c2": axis_text[cols] if text else c2}
    columns["avg_ent_ebits"] = _mean_entropy(h[rows], h[cols], probs, order)
    if mode == "preserve":
        # Each pair's sorted self-tensored spectrum (x^2, xy, xy, y^2), y = 1 - x, gathered; xy's entropy counts twice.
        e = [entropy_terms(preserve_cap(t[rows], t[cols], probs)) for t in (axis**2, axis * (1.0 - axis), (1.0 - axis) ** 2)]
        # Clamped at 0 like entropy_bits: priors summing to 1 only within rounding can leave -1e-16 at (1, 1).
        columns["preserve_cost_ebits"] = np.maximum(e[0] + e[1] + e[1] + e[2], 0.0)
        return columns

    amplitudes = np.sqrt(a2), np.sqrt(1.0 - a2), np.sqrt(c2), np.sqrt(1.0 - c2)
    columns["feasible_unassisted"] = pointer_feasible(family_lambda_max(*amplitudes, probs, order))
    if mode == "feasible3":
        return columns
    columns["alpha2_max"] = alpha2 = alpha2_max_from_lambda(family_lambda_max(*amplitudes, [0.25] * 4))
    columns["assist_cost_ebits"] = _binary_entropy_terms(alpha2)
    return columns


def format_value(value) -> str:
    """The text of one output value: None is empty, bools (numpy's too) are true/false, numbers %.12g."""
    if value is None:
        return ""
    if type(value) in _BOOL_TYPES:
        return "true" if value else "false"
    return format(value, ".12g")


def _csv_rows(columns: dict[str, np.ndarray]) -> str:
    """One block's CSV rows by one %-call: floats %.12g (format_value's text), text as given, bools true/false."""
    cells = [np.where(c, "true", "false") if c.dtype == bool else c for c in (columns[n] for n in _FIELDS if n in columns)]
    row = ",".join("" if n not in columns else "%.12g" if columns[n].dtype == float else "%s" for n in _FIELDS) + "\n"
    return (row * len(cells[0])) % tuple(np.array(cells, object).T.ravel().tolist())


def records_to_csv(records: Sequence[SweepRecord]) -> str:
    """Render records under the fixed header: a SweepTable by columns, other records row by row."""
    if isinstance(records, SweepTable):
        rows = map(_csv_rows, records._blocks(text=True))
    else:
        rows = (",".join([format_value(getattr(r, name)) for name in _FIELDS]) + "\n" for r in records)
    return "".join([CSV_HEADER, "\n", *rows])


def _write_blocks(records: Sequence[SweepRecord], handle) -> None:
    for start in range(0, max(len(records), 1), CSV_CHUNK_ROWS):
        handle.write(records_to_csv(records[start : start + CSV_CHUNK_ROWS])[len(CSV_HEADER) + 1 if start else 0 :])


def write_csv(records: Sequence[SweepRecord], destination) -> None:
    """Write the CSV rendering to a path or text file object (UTF-8, LF).

    Records go through records_to_csv CSV_CHUNK_ROWS at a time, and each block's
    text goes out in one write call, so the whole text is never held. A path
    that is absent or a regular file (symlinks resolved) is written all or
    nothing: to a new file beside it, renamed over it at the end and removed
    on any failure or interrupt; an existing file keeps its permission bits.
    Any other existing path, such as a FIFO or a device, is written in place.
    """
    records = records if isinstance(records, Sequence) else list(records)
    if not (isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__")):
        return _write_blocks(records, destination)
    name = os.fsdecode(destination)
    if not name:  # as open("") does: realpath("") would put the temporary file beside the working directory
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), name)
    try:
        mode = os.stat(name).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(name, "w", encoding="utf-8", newline="") as handle:
            return _write_blocks(records, handle)
    path = os.path.realpath(name)
    if mode is not None and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)
    head, tail = os.path.split(path)
    temp = os.path.join(head, f".{tail}.{os.getpid()}-{os.urandom(4).hex()}.tmp")
    try:
        handle = open(temp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, name) from None
    try:
        with handle:
            if mode is not None:
                os.chmod(temp, stat.S_IMODE(mode))
            _write_blocks(records, handle)
        os.replace(temp, path)
    except BaseException:
        os.remove(temp)
        raise
