"""Parameter-grid scans over the family's (a^2, c^2) square, emitted as CSV.

Grid points are independent; the scans below evaluate them as one batch
through the pointer-spectrum kernel of :mod:`entdisc.discrimination` (the
same code a per-point call runs as a batch of one) and the closed-form
resource bound. Results are kept as numpy columns and read as a sequence of
records; rows are emitted in deterministic row-major order (outer loop a^2,
inner loop c^2), so repeated runs produce byte-identical output.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .discrimination import alpha2_max_from_lambda, pointer_majorized, pointer_spectra
from .errors import ValidationError
from .spectra import binary_entropy
from .states import BellFamily, check_family_priors, check_which, family_matrices

__all__ = [
    "CSV_HEADER",
    "MAX_GRID_N",
    "SWEEP_MODES",
    "SweepRecord",
    "SweepTable",
    "avg_entanglement",
    "format_value",
    "records_to_csv",
    "run_sweep",
    "write_csv",
]

SWEEP_MODES = ("assist", "preserve", "feasible3")

CSV_HEADER = "a2,c2,avg_ent_ebits,feasible_unassisted,alpha2_max,assist_cost_ebits,preserve_cost_ebits"

DEFAULT_GRID_N = 101

# Largest lattice per axis, since memory grows with grid_n^2; 1001 is the
# largest grid the performance plan (ROADMAP aim 1) times.
MAX_GRID_N = 1001

_FIELDS = tuple(CSV_HEADER.split(","))

# Rows formatted per step of records_to_csv: bounds the Python objects alive
# at once, whatever the grid size.
CSV_CHUNK_ROWS = 4096

# Characters handed to one write call by write_csv: a text file object
# encodes each write whole, so one call with the whole CSV would hold a
# second, encoded copy of it.
WRITE_SLICE_CHARS = 1 << 20


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
    """Read-only sweep results held as numpy columns, one per CSV field.

    Behaves as a sequence of :class:`SweepRecord`: ``len``, iteration and
    integer indexes (negative ones too) build records on demand, and a slice
    returns another table over views of the same columns. Columns a mode
    does not populate are absent and read as None. The constructor keeps the
    arrays it is given and marks them read-only.
    """

    def __init__(self, columns: dict[str, np.ndarray]):
        self._columns = {name: columns[name] for name in _FIELDS if name in columns}
        for column in self._columns.values():
            column.setflags(write=False)

    def __len__(self) -> int:
        return self._columns["a2"].size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SweepTable({name: col[index] for name, col in self._columns.items()})
        k = range(len(self))[index]
        return SweepRecord(**{name: col.item(k) for name, col in self._columns.items()})


def avg_entanglement(family: BellFamily, probs: Sequence[float] | None = None) -> float:
    """Probability-weighted mean entanglement entropy of the four members."""
    probs = check_family_priors(probs, 4)
    h_a = binary_entropy(family.a**2)
    h_c = binary_entropy(family.c**2)
    member_entropy = (h_a, h_a, h_c, h_c)
    return float(sum(p * e for p, e in zip(probs, member_entropy)))


def _entropy_terms(values: np.ndarray) -> np.ndarray:
    """Elementwise -v*log2(v) with 0*log(0) = 0."""
    safe = np.where(values > 0.0, values, 1.0)
    return -values * np.log2(safe) + 0.0  # +0.0 normalizes -0.0 away


def _binary_entropy_rows(p: np.ndarray) -> np.ndarray:
    return _entropy_terms(p) + _entropy_terms(1.0 - p)


def run_sweep(
    mode: str,
    grid_n: int = DEFAULT_GRID_N,
    probs: Sequence[float] | None = None,
    which: Sequence[int] = (0, 1, 2),
) -> SweepTable:
    """Evaluate one analysis mode on the uniform grid_n x grid_n lattice over [0.5, 1]^2.

    Returns a read-only sequence of records over numpy columns. Modes:
      * ``assist``: unassisted feasibility plus the assisted-resource bound
        and its entropy cost (the resource bound itself always uses equal
        priors, matching ``assisted_alpha2_max``).
      * ``preserve``: entanglement cost of discrimination that keeps the
        identified state intact.
      * ``feasible3``: feasibility of discriminating the three-member subset
        ``which`` (priors default to 1/3 each).
    """
    if mode not in SWEEP_MODES:
        raise ValidationError(f"unknown sweep mode {mode!r}; expected one of {SWEEP_MODES}")
    if not 2 <= grid_n <= MAX_GRID_N:
        raise ValidationError(f"grid_n must be between 2 and {MAX_GRID_N}, got {grid_n}")
    probs = check_family_priors(probs, 3 if mode == "feasible3" else 4)
    indices = check_which(which) if mode == "feasible3" else range(4)

    axis = np.linspace(0.5, 1.0, grid_n)
    # Per-axis values as a column (a^2 varies down the rows) and a row (c^2
    # across them): an operation between the two broadcasts to the lattice in
    # row-major order and yields, point by point, what the same elementwise
    # operations give on the full-length a2 and c2 columns.
    rows, cols = axis[:, None], axis[None, :]
    h_rows, h_cols = _binary_entropy_rows(rows), _binary_entropy_rows(cols)
    member_entropy = (h_rows, h_rows, h_cols, h_cols)
    columns = {
        "a2": np.repeat(axis, grid_n),
        "c2": np.tile(axis, grid_n),
        "avg_ent_ebits": sum(p * member_entropy[i] for p, i in zip(probs, indices)).ravel(),
    }

    if mode == "preserve":
        # Each member's self-tensored spectrum is already sorted, so the
        # mixture is the component-wise weighted sum (x^2, xy, xy, y^2),
        # whose two equal cross terms are computed once.
        w_a, w_c = probs[0] + probs[1], probs[2] + probs[3]
        b2, d2 = 1.0 - rows, 1.0 - cols
        cross = _entropy_terms(w_a * rows * b2 + w_c * cols * d2)
        cost = _entropy_terms(w_a * rows**2 + w_c * cols**2)
        cost += cross
        cost += cross
        cost += _entropy_terms(w_a * b2**2 + w_c * d2**2)
        # Clamped at 0 like entropy_bits: priors summing to 1 only within
        # rounding can leave a -1e-16 cost at the product corner.
        columns["preserve_cost_ebits"] = np.maximum(cost, 0.0, out=cost).ravel()
        return SweepTable(columns)

    a2, c2 = columns["a2"], columns["c2"]
    members = family_matrices(np.sqrt(a2), np.sqrt(1.0 - a2), np.sqrt(c2), np.sqrt(1.0 - c2))
    lam = pointer_spectra([members[i] for i in indices], probs)
    columns["feasible_unassisted"] = pointer_majorized(lam)
    if mode == "assist":
        if probs != [0.25] * 4:
            lam = pointer_spectra(members, (0.25,) * 4)
        columns["alpha2_max"] = alpha2 = alpha2_max_from_lambda(lam[:, 0])
        columns["assist_cost_ebits"] = _binary_entropy_rows(alpha2)
    return SweepTable(columns)


def format_value(value) -> str:
    """The text of one output value: None is empty, bools are true/false, numbers %.12g."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format(value, ".12g")


def _csv_chunks(columns: dict[str, np.ndarray], size: int) -> Iterator[str]:
    """CSV rows, CSV_CHUNK_ROWS at a time, each formatted by one %-pattern.

    Float columns print with %.12g (the same text as format_value), boolean
    columns as true/false, and absent columns as empty fields.
    """
    patterns, cells = [], []
    for name in _FIELDS:
        column = columns.get(name)
        if column is None:
            patterns.append("")
            continue
        patterns.append("%s" if column.dtype.kind == "b" else "%.12g")
        cells.append(np.where(column, "true", "false") if column.dtype.kind == "b" else column)
    row = ",".join(patterns) + "\n"
    for start in range(0, size, CSV_CHUNK_ROWS):
        chunk = zip(*(column[start : start + CSV_CHUNK_ROWS].tolist() for column in cells))
        yield "".join([row % values for values in chunk])


def records_to_csv(records: Sequence[SweepRecord]) -> str:
    """Render records under the fixed header: a SweepTable by columns, other records row by row."""
    if isinstance(records, SweepTable):
        rows = _csv_chunks(records._columns, len(records))
    else:
        rows = (",".join([format_value(getattr(r, name)) for name in _FIELDS]) + "\n" for r in records)
    return "".join([CSV_HEADER, "\n", *rows])


def write_csv(records: Sequence[SweepRecord], destination) -> None:
    """Write the CSV rendering to a path or text file object (UTF-8, LF).

    The text goes out in WRITE_SLICE_CHARS slices, one write call each.
    """
    text = records_to_csv(records)
    if isinstance(destination, (str, bytes)) or hasattr(destination, "__fspath__"):
        sink = open(destination, "w", encoding="utf-8", newline="")
    else:
        sink = contextlib.nullcontext(destination)
    with sink as handle:
        for start in range(0, len(text), WRITE_SLICE_CHARS):
            handle.write(text[start : start + WRITE_SLICE_CHARS])
