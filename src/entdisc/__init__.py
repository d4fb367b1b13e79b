"""Majorization toolkit for LOCC convertibility and local state discrimination.

Decides when bipartite pure-state ensembles can be distinguished by local
operations and classical communication, and computes the minimal pre-shared
entanglement for assisted and state-preserving discrimination.
"""

from .discrimination import (
    CostReport,
    Residual,
    assisted_alpha2_max,
    closed_form_lhs,
    conjugation_probe,
    ensemble_discrimination_feasible,
    locc_deterministic_feasible,
    locc_ensemble_feasible,
    partial_inner_product,
    perfect_discrimination_feasible,
    pointer_state,
    preserve_cost,
    preserve_spectrum,
    three_state_feasible,
)
from .errors import ValidationError
from .spectra import (
    DEFAULT_TOL,
    ProbVector,
    binary_entropy,
    entropy_bits,
    majorizes,
    mix,
    pad,
    tensor,
)
from .states import (
    BellFamily,
    DistinguishabilityBound,
    Ensemble,
    PureState,
    SchmidtDecomposition,
    bell_family,
    bell_states,
    distinguishability_bound,
    entanglement_entropy,
    geometric_measure,
    global_robustness,
    reduced_spectrum,
    relative_entropy_ent,
    schmidt,
)
from .sweep import (
    CSV_HEADER,
    SweepRecord,
    avg_entanglement,
    records_to_csv,
    run_sweep,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
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
    "bell_family",
    "bell_states",
    "binary_entropy",
    "closed_form_lhs",
    "conjugation_probe",
    "distinguishability_bound",
    "ensemble_discrimination_feasible",
    "entanglement_entropy",
    "entropy_bits",
    "geometric_measure",
    "global_robustness",
    "locc_deterministic_feasible",
    "locc_ensemble_feasible",
    "majorizes",
    "mix",
    "pad",
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
