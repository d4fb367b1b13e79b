"""CLI door of the differential suite: the command line prints the library's answers.

A lattice point of a small grid, priors and a three-member subset are drawn.
The ``--json`` output of the per-point subcommands must equal the library
calls exactly (JSON prints floats in full), and that point's row of each
sweep mode must agree with the same calls at 12 significant digits and with
an independent oracle: lambda_1 from an index-loop build of the pointer state
and a dense eigensolve, for the four members and for the three-member subset.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entdisc import (
    DEFAULT_TOL,
    BellFamily,
    assisted_alpha2_max,
    binary_entropy,
    perfect_discrimination_feasible,
    preserve_cost,
    preserve_spectrum,
    three_state_feasible,
)
from entdisc.cli import main
from entdisc.sweep import CSV_HEADER
from helpers import family_member_matrices, loop_lambda_max

FIELDS = CSV_HEADER.split(",")
POINTS = st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1)))


def priors(count):
    weights = st.lists(st.integers(0, 3), min_size=count, max_size=count).filter(any)
    return st.none() | weights.map(lambda ks: [k / sum(ks) for k in ks])


def run(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def probs_flag(probs) -> list[str]:
    return [] if probs is None else ["--probs", ",".join(map(repr, probs))]


def assert_verdict(cell: str, lam_max: float):
    """A CSV verdict against lambda_1 <= 1/2 + tol, either way within 1e-12 of that edge."""
    if abs(lam_max - 0.5 - DEFAULT_TOL) > 1e-12:
        assert cell == ("true" if lam_max <= 0.5 + DEFAULT_TOL else "false"), (cell, lam_max)


def assert_row(row: dict, expected: dict):
    for name, value in expected.items():
        if isinstance(value, bool):
            assert row[name] == ("true" if value else "false"), name
        else:
            assert math.isclose(float(row[name]), value, rel_tol=1e-11, abs_tol=1e-15), (name, row[name], value)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(POINTS, priors(4), priors(3), st.permutations(range(4)).map(lambda p: p[:3]))
def test_cli_matches_library(point, p4, p3, which):
    grid_n, i, j = point
    axis = np.linspace(0.5, 1.0, grid_n)
    a2, c2 = float(axis[i]), float(axis[j])
    family = BellFamily.from_squared(a2, c2)
    report = assisted_alpha2_max(family)
    feasible4 = perfect_discrimination_feasible(family, p4)
    feasible3 = three_state_feasible(family, which, p3)
    cost = preserve_cost(family, p4)
    subset = ["--which", ",".join(map(str, which))]

    per_point = {
        "discriminate": (probs_flag(p4), {"feasible_unassisted": feasible4}),
        "three-state": (probs_flag(p3) + subset, {"which": list(which), "feasible_unassisted": feasible3}),
        "assist-cost": ([], {
            "feasible": report.feasible,
            "alpha2_max": report.alpha2_max,
            "assist_cost_ebits": report.cost_ebits,
            "first_sum_bound": report.first_sum_bound,
        }),
        "preserve-cost": (probs_flag(p4), {
            "preserve_cost_ebits": cost,
            "preserve_spectrum": preserve_spectrum(family, p4).entries.tolist(),
        }),
    }
    for command, (flags, values) in per_point.items():
        out = run(command, "--a2", repr(a2), "--c2", repr(c2), "--json", *flags)
        assert json.loads(out) == {"a2": a2, "c2": c2, **values}, command

    h = [binary_entropy(a2)] * 2 + [binary_entropy(c2)] * 2
    avg4 = sum(p * e for p, e in zip(p4 or [0.25] * 4, h))
    avg3 = sum(p * h[k] for p, k in zip(p3 or [1 / 3] * 3, which))
    sweeps = {
        "assist": (probs_flag(p4), {
            "avg_ent_ebits": avg4,
            "feasible_unassisted": feasible4,
            "alpha2_max": report.alpha2_max,
            "assist_cost_ebits": report.cost_ebits,
        }),
        "preserve": (probs_flag(p4), {"avg_ent_ebits": avg4, "preserve_cost_ebits": cost}),
        "feasible3": (probs_flag(p3) + subset, {"avg_ent_ebits": avg3, "feasible_unassisted": feasible3}),
    }
    rows = {}
    for mode, (flags, values) in sweeps.items():
        lines = run("sweep", "--mode", mode, "--grid-n", str(grid_n), *flags).splitlines()
        rows[mode] = row = dict(zip(FIELDS, lines[1 + i * grid_n + j].split(",")))
        assert_row(row, {"a2": a2, "c2": c2, **values})

    # the same rows against an oracle that shares no code with the kernels:
    # an index-loop eigensolve of the four-member and the subset pointer states
    members = family_member_matrices(a2, c2)
    assert_verdict(rows["assist"]["feasible_unassisted"], loop_lambda_max(members, p4 or [0.25] * 4))
    lam3 = loop_lambda_max([members[k] for k in which], p3 or [1 / 3] * 3)
    assert_verdict(rows["feasible3"]["feasible_unassisted"], lam3)
    lam = loop_lambda_max(members, [0.25] * 4)
    alpha2 = 1.0 if lam <= 0.5 + DEFAULT_TOL else 0.5 / lam
    assert math.isclose(float(rows["assist"]["alpha2_max"]), alpha2, rel_tol=1e-11)
