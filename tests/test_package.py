"""The package's public surface.

The names are written out here rather than read from the package, so a name
that a module's ``__all__`` gains or loses shows as a failure.
"""

import importlib
import subprocess
import sys

import entdisc
from helpers import child_env

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


def test_all_lists_the_public_names():
    assert entdisc.__all__ == PUBLIC_NAMES


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
