"""The package's public surface.

The names and the public callables' parameter names are written out here
rather than read from the package, so a name that a module's ``__all__``
gains or loses, or a parameter that a public callable gains or loses, shows
as a failure.
"""

import importlib
import inspect
import subprocess
import sys

import entdisc
from helpers import child_env, public_callables

PUBLIC_NAMES = [
    "BellFamily",
    "CSV_HEADER",
    "CostReport",
    "DEFAULT_TOL",
    "DistinguishabilityBound",
    "Ensemble",
    "ProbVector",
    "PureState",
    "Residual",
    "SchmidtDecomposition",
    "SweepRecord",
    "ValidationError",
    "assisted_alpha2_max",
    "avg_entanglement",
    "bell_states",
    "binary_entropy",
    "closed_form_lhs",
    "conjugation_probe",
    "distinguishability_bound",
    "ensemble_discrimination_feasible",
    "entropy_bits",
    "geometric_measure",
    "global_robustness",
    "locc_ensemble_feasible",
    "majorizes",
    "mix",
    "partial_inner_product",
    "perfect_discrimination_feasible",
    "pointer_state",
    "preserve_cost",
    "preserve_spectrum",
    "records_to_csv",
    "reduced_spectrum",
    "relative_entropy_ent",
    "run_sweep",
    "schmidt",
    "tensor",
    "three_state_feasible",
    "write_csv",
]
SUBMODULES = ["discrimination", "errors", "spectra", "states", "sweep"]
# Each public callable with its parameters, a public classmethod as ``Class.method``.
PUBLIC_SIGNATURES = [
    "BellFamily(a2, c2)",
    "BellFamily.from_squared(a2, c2)",
    "CostReport(alpha2_max, cost_ebits, first_sum_bound, feasible)",
    "DistinguishabilityBound(n_robustness, n_rel_entropy, n_geometric)",
    "Ensemble(members)",
    "Ensemble.equal_priors(states)",
    "ProbVector(entries)",
    "PureState(amplitudes, dim_a, dim_b)",
    "PureState.from_matrix(coeffs)",
    "Residual(norm, state)",
    "SchmidtDecomposition(probs, basis_a, basis_b)",
    "SweepRecord(a2, c2, avg_ent_ebits, feasible_unassisted, alpha2_max, assist_cost_ebits, preserve_cost_ebits)",
    "assisted_alpha2_max(family)",
    "avg_entanglement(family, probs)",
    "bell_states()",
    "binary_entropy(p)",
    "closed_form_lhs(family, probs)",
    "conjugation_probe()",
    "distinguishability_bound(ensemble)",
    "ensemble_discrimination_feasible(ensemble, tol)",
    "entropy_bits(x)",
    "geometric_measure(state)",
    "global_robustness(state)",
    "locc_ensemble_feasible(source, targets, tol)",
    "majorizes(x, y, tol)",
    "mix(weighted)",
    "partial_inner_product(bra, joint)",
    "perfect_discrimination_feasible(family, probs, tol)",
    "pointer_state(ensemble, pointers)",
    "preserve_cost(family, probs)",
    "preserve_spectrum(family, probs)",
    "records_to_csv(records)",
    "reduced_spectrum(state)",
    "relative_entropy_ent(state)",
    "run_sweep(mode, grid_n, probs, which)",
    "schmidt(state)",
    "tensor(x, y)",
    "three_state_feasible(family, which, probs, tol)",
    "write_csv(records, destination)",
]


def test_all_lists_the_public_names():
    assert entdisc.__all__ == PUBLIC_NAMES


def test_public_signatures():
    shown = [f"{name}({', '.join(inspect.signature(fn).parameters)})" for name, fn in public_callables().items()]
    assert shown == PUBLIC_SIGNATURES


def test_public_attributes_of_a_fresh_import():
    # a child process, since importing entdisc.cli (as the CLI tests do) adds the submodule as an attribute
    code = "import entdisc; print(*sorted(name for name in vars(entdisc) if not name.startswith('_')))"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.split() == sorted(PUBLIC_NAMES + SUBMODULES)


def test_each_name_is_declared_by_one_module():
    modules = [importlib.import_module(f"entdisc.{name}") for name in [*SUBMODULES, "cli"]]
    for name in PUBLIC_NAMES:
        owners = [module for module in modules if name in getattr(module, "__all__", ())]
        assert len(owners) == 1, (name, [module.__name__ for module in owners])
        assert getattr(entdisc, name) is getattr(owners[0], name), name
