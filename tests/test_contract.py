"""The library's input contract, as one generated test.

Every public callable (each name in ``entdisc.__all__`` and each public classmethod of a public class) is called at
a valid baseline, and then with one parameter at a time replaced by an odd value from one shared pool
(``helpers.ODD_VALUES``). Every annotated parameter is driven, read from the signatures; ``write_csv``'s
destination, a path or file, is not. A parameter whose type names no package class takes numbers: each call
returns or raises ``ValidationError``, and never warns. Where its baseline value is a list or tuple, its first
number is replaced too, and an entry that the scalar rule refuses (``_is_real``, or a complex number, which
amplitudes take) must be refused in the list. A parameter typed as a package object (``ProbVector``, ``PureState``,
``Ensemble``, ``BellFamily``, ``SweepRecord`` or a sequence of them) may also raise Python's own ``TypeError`` or
``AttributeError``, and nothing else.
"""

import copy
import inspect
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entdisc
from entdisc import DEFAULT_TOL, BellFamily, Ensemble, ProbVector, SweepRecord, ValidationError, bell_states
from entdisc.spectra import _is_real
from helpers import ODD_VALUES, public_callables

PUBLIC = public_callables()
PACKAGE_TYPES = re.compile(r"\b(%s)\b" % "|".join(n for n in entdisc.__all__ if isinstance(getattr(entdisc, n), type)))
ANNOTATED = [(name, param.name, PACKAGE_TYPES.search(str(param.annotation)) is not None)
             for name, fn in PUBLIC.items() for param in inspect.signature(fn).parameters.values()
             if param.annotation is not inspect.Parameter.empty]
DRIVEN = [(name, param) for name, param, typed in ANNOTATED if not typed]
PACKAGE_TYPED = [(name, param) for name, param, typed in ANNOTATED if typed]

FAMILY = BellFamily(0.9, 0.8)
BELL = bell_states()
HALF = ProbVector([0.5, 0.5])
PAIR = Ensemble(((0.5, BELL[0]), (0.5, BELL[1])))
PRIORS = [0.4, 0.3, 0.2, 0.1]
RECORD = SweepRecord(1.0, 1.0, 0.0, True, 1.0, 0.0, 0.0)

# A valid call of each public callable, by argument name.
BASELINES = {
    "BellFamily": dict(a2=0.9, c2=0.8),
    "BellFamily.from_squared": dict(a2=0.9, c2=0.8),
    "CostReport": dict(alpha2_max=1.0, cost_ebits=0.0, first_sum_bound=1.0, feasible=True),
    "DistinguishabilityBound": dict(n_robustness=4.0, n_rel_entropy=4.0, n_geometric=4.0),
    "Ensemble": dict(members=((0.5, BELL[0]), (0.5, BELL[1]))),
    "Ensemble.equal_priors": dict(states=BELL),
    "ProbVector": dict(entries=[0.5, 0.25, 0.25]),
    "PureState": dict(amplitudes=[0.6, 0, 0, 0.8], dim_a=2, dim_b=2),
    "PureState.from_matrix": dict(coeffs=[[0.6, 0], [0, 0.8]]),
    "Residual": dict(norm=1.0, state=BELL[0]),
    "SchmidtDecomposition": dict(probs=HALF, basis_a=np.eye(2), basis_b=np.eye(2)),
    "SweepRecord": dict(a2=1.0, c2=1.0, avg_ent_ebits=0.0, feasible_unassisted=True, alpha2_max=1.0,
                        assist_cost_ebits=0.0, preserve_cost_ebits=0.0),
    "assisted_alpha2_max": dict(family=FAMILY),
    "avg_entanglement": dict(family=FAMILY, probs=PRIORS),
    "bell_states": dict(),
    "binary_entropy": dict(p=0.25),
    "closed_form_lhs": dict(family=FAMILY, probs=PRIORS),
    "conjugation_probe": dict(),
    "distinguishability_bound": dict(ensemble=PAIR),
    "ensemble_discrimination_feasible": dict(ensemble=PAIR, tol=DEFAULT_TOL),
    "entropy_bits": dict(x=HALF),
    "geometric_measure": dict(state=BELL[0]),
    "global_robustness": dict(state=BELL[0]),
    "locc_ensemble_feasible": dict(source=HALF, targets=[(1.0, HALF)], tol=DEFAULT_TOL),
    "majorizes": dict(x=HALF, y=HALF, tol=DEFAULT_TOL),
    "mix": dict(weighted=[(0.5, HALF), (0.5, HALF)]),
    "partial_inner_product": dict(bra=BELL[0], joint=entdisc.conjugation_probe()),
    "perfect_discrimination_feasible": dict(family=FAMILY, probs=PRIORS, tol=DEFAULT_TOL),
    "pointer_state": dict(ensemble=PAIR, pointers=BELL[:2]),
    "preserve_cost": dict(family=FAMILY, probs=PRIORS),
    "preserve_spectrum": dict(family=FAMILY, probs=PRIORS),
    "records_to_csv": dict(records=[RECORD]),
    "reduced_spectrum": dict(state=BELL[0]),
    "relative_entropy_ent": dict(state=BELL[0]),
    "run_sweep": dict(mode="assist", grid_n=2, probs=PRIORS, which=(0, 1, 2)),
    "schmidt": dict(state=BELL[0]),
    "tensor": dict(x=HALF, y=HALF),
    "three_state_feasible": dict(family=FAMILY, which=(0, 1, 2), probs=[0.5, 0.3, 0.2], tol=DEFAULT_TOL),
    "write_csv": dict(records=[RECORD], destination=io.StringIO()),
}

# Every pooled value, once each (a finite pool is enumerated), as a fresh copy; drawn by index, as a generic
# timedelta64 cannot be hashed.
odd_values = st.sampled_from(range(len(ODD_VALUES))).map(lambda i: copy.deepcopy(ODD_VALUES[i]))


def _accepts(name: str, **changes) -> bool:
    """Call ``name`` at its baseline with ``changes``: True if it returns, False on ValidationError; warnings raise."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            PUBLIC[name](**{**BASELINES[name], **changes})
        except ValidationError:
            return False
    return True


def _with_first_entry(values, value):
    """A list or tuple, maybe nested, with its first number replaced by ``value``."""
    head = _with_first_entry(values[0], value) if isinstance(values[0], (list, tuple)) else value
    return type(values)([head, *values[1:]])


def test_every_public_callable_has_a_valid_baseline():
    assert set(BASELINES) == set(PUBLIC)
    for name in BASELINES:
        assert _accepts(name), name


@pytest.mark.parametrize("name, param", DRIVEN, ids=[f"{name}-{param}" for name, param in DRIVEN])
@settings(max_examples=len(ODD_VALUES), derandomize=True, database=None, deadline=None)
@given(value=odd_values)
def test_odd_values_return_or_raise_validation_error(name, param, value):
    _accepts(name, **{param: value})
    baseline = BASELINES[name][param]
    if isinstance(baseline, (list, tuple)):
        accepted = _accepts(name, **{param: _with_first_entry(baseline, copy.deepcopy(value))})
        assert not accepted or _is_real(value) or isinstance(value, (complex, np.complexfloating))


@pytest.mark.parametrize("name, param", PACKAGE_TYPED, ids=[f"{name}-{param}" for name, param in PACKAGE_TYPED])
@settings(max_examples=len(ODD_VALUES), derandomize=True, database=None, deadline=None)
@given(value=odd_values)
def test_odd_objects_raise_only_python_type_errors(name, param, value):
    try:
        _accepts(name, **{param: value})
    except (TypeError, AttributeError):
        pass
