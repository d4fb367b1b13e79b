"""Outputs keep their bits under Python 3.12's summation, on any interpreter.

From Python 3.12 the builtin ``sum`` compensates its rounding when every item
is a float, so a last bit added by ``sum`` would depend on the interpreter.
The fixture below puts such a ``sum`` into each module of the package, so a
float sum that still goes through the builtin shows here as a moved bit.
"""

import math

import pytest

import entdisc.discrimination
import entdisc.spectra
import entdisc.states
import entdisc.sweep
from entdisc import (
    BellFamily,
    Ensemble,
    ProbVector,
    ValidationError,
    avg_entanglement,
    distinguishability_bound,
    mix,
    run_sweep,
)
from entdisc.spectra import check_probabilities


def compensated_sum(iterable, start=0):
    """Builtin ``sum`` as Python 3.12 adds: Neumaier-compensated when every item is a float, plainly otherwise.

    It gave the bits of CPython 3.12.1's and 3.13.0's builtin on 200 000 random lists of 1-7 floats.
    """
    items = list(iterable)
    if not all(type(v) is float for v in items):
        total = start
        for v in items:
            total = total + v
        return total
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


@pytest.fixture
def sum_312(monkeypatch):
    for module in (entdisc.spectra, entdisc.states, entdisc.sweep, entdisc.discrimination):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_in_order_helper_does_not_compensate():
    from entdisc.spectra import _add_in_order

    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert _add_in_order([1e16, 1.0, -1e16]) == 0.0


@pytest.mark.parametrize("probs", [None, [0.4, 0.3, 0.2, 0.1]])
def test_per_point_mean_entropy_is_the_sweep_column(sum_312, probs):
    moved = [
        (r.a2, r.c2)
        for r in run_sweep("assist", 101, probs)
        if avg_entanglement(BellFamily.from_squared(r.a2, r.c2), probs).hex() != r.avg_ent_ebits.hex()
    ]
    assert moved == []


def test_distinguishability_bound_keeps_its_pinned_bits(sum_312):
    bound = distinguishability_bound(Ensemble.equal_priors(BellFamily(0.9, 0.8).states()))
    assert (bound.n_robustness, bound.n_rel_entropy, bound.n_geometric) == (
        2.352941176470589,
        2.637191326925814,
        3.388235294117647,
    )


def test_refused_totals_print_the_in_order_sum(sum_312):
    # Compensated, these totals read 0.999 and 1.001.
    for values, total in (
        ([0.333, 0.343, 0.041, 0.282], "0.9990000000000001"),
        ([0.317, 0.063, 0.194, 0.282, 0.145], "1.0010000000000001"),
    ):
        for build in (ProbVector, check_probabilities, lambda v: mix([(w, ProbVector([1.0])) for w in v])):
            with pytest.raises(ValidationError, match=f"^probabilities sum to {total}, expected 1 within 1e-09$"):
                build(values)
