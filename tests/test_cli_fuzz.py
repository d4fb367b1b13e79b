"""Fuzz of the command-line front door: every argv exits 0 or 2.

Argument vectors are drawn over every subcommand, with numeric, garbage and
empty flag values, flags that belong to other subcommands, and ensemble
files holding JSON values of random types. A bad input must exit 2 with
exactly one ``error:`` line on standard error and no warning; anything else
(exit 1, a traceback, a numpy warning) is a fault. Sweeps stay at grid_n <= 5
so the suite stays fast.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entdisc.cli import main

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 5),
    st.sampled_from([0.5, 0.7, 1.0, 1e308, -1e308, 5e-324]),
)
GARBAGE = st.one_of(
    st.sampled_from(["", "x", "nan", "-inf", "1,,2", "0.5:", ":0.5", "--json", "-1", "0.9,1,2"]),
    st.text(max_size=6),
)
VALUES = st.one_of(NUMBERS.map(repr), GARBAGE, st.lists(NUMBERS, max_size=5).map(lambda xs: ",".join(map(repr, xs))))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


def joined(values):
    return ",".join(map(repr, values))


SQUARED = st.floats(0.5, 1.0)
PRIORS = {
    4: st.sampled_from([[0.25] * 4, [0.4, 0.3, 0.2, 0.1], [0.97, 0.01, 0.01, 0.01], [1.0, 0.0, 0.0, 0.0]]),
    3: st.sampled_from([[1 / 3] * 3, [0.5, 0.3, 0.2], [0.0, 0.5, 0.5]]),
}
SUBSETS = st.permutations(range(4)).map(lambda p: joined(p[:3]))
SPECTRA = st.sampled_from(["1", "0.5,0.5", "1,0", "0.6,0.4", "0.7,0.2,0.1"])
R = 0.7071067811865476
BASIS_STATES = [
    {"amplitudes": amps, "dim_a": 2, "dim_b": 2}
    for amps in ([[R, 0], [0, 0], [0, 0], [R, 0]], [[0, 0], [1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, R], [R, 0]],
                 [[1, 0], [0, 0], [0, 0], [0, 0]], [[0.6, 0], [0, 0], [0, 0], [0.8, 0]])
]

# Valid values per flag; None marks a switch without a value.
VALID = {
    "--a2": SQUARED.map(repr),
    "--c2": SQUARED.map(repr),
    "--json": None,
    "--tol": st.sampled_from(["0", "1e-9", "0.02", "5"]),
    "--which": SUBSETS,
    "--source": SPECTRA,
    "--target": SPECTRA | st.tuples(st.sampled_from(["0.5", "1", "0.3"]), SPECTRA).map(":".join),
    "--mode": st.sampled_from(["assist", "preserve", "feasible3"]),
    "--grid-n": st.integers(2, 5).map(str),
}
# Per subcommand: the alternative sets of flags a request needs, then the optional flags.
COMMANDS = {
    "discriminate": ([("--a2", "--c2"), ("--ensemble",)], ["--json", "--probs", "--tol"]),
    "three-state": ([("--a2", "--c2")], ["--json", "--probs", "--tol", "--which"]),
    "assist-cost": ([("--a2", "--c2")], ["--json"]),
    "preserve-cost": ([("--a2", "--c2")], ["--json", "--probs"]),
    "bounds": ([("--a2", "--c2"), ("--ensemble",)], ["--json", "--probs"]),
    "convert": ([("--source", "--target")], ["--json", "--tol", "--target"]),
    "sweep": ([("--mode", "--grid-n")], ["--probs", "--which", "--out"]),
}
ALL_FLAGS = sorted(set(VALID) | {"--probs", "--ensemble", "--out"})


@st.composite
def ensemble_files(draw):
    """A valid family or states file, with one value replaced or removed half the time."""
    if draw(st.booleans()):
        data = {"family": {"a2": draw(SQUARED), "c2": draw(SQUARED)}}
        if draw(st.booleans()):
            data["probs"] = draw(PRIORS[4])
    else:
        states = draw(st.lists(st.sampled_from(BASIS_STATES), min_size=1, max_size=5))
        data = {"states": states, "probs": [1 / len(states)] * len(states)}
    data = json.loads(json.dumps(data))
    if draw(st.booleans()):
        # Every slot down to the keys of each state; the amplitude lists
        # count as one slot each.
        slots = [(data, key) for key in data]
        for container, key in slots:  # grows while it is walked
            value = container[key]
            if key != "amplitudes" and isinstance(value, (dict, list)):
                slots += [(value, k) for k in (value if isinstance(value, dict) else range(len(value)))]
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON_VALUES)
    return data


@st.composite
def requests(draw, workdir):
    """A valid argv for one subcommand with at most one fault, and the ensemble file it may name."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    needed, optional = COMMANDS[command]
    flags = list(draw(st.sampled_from(needed))) + [f for f in optional if draw(st.booleans())]
    fault = draw(st.sampled_from(["none", "value", "drop", "extra"]))
    if fault == "drop":
        flags.pop(draw(st.integers(0, len(flags) - 1)))
    if fault == "extra":
        flags.append(draw(st.sampled_from(ALL_FLAGS)))
    bad = draw(st.integers(0, len(flags) - 1)) if fault == "value" else None
    argv, ensemble = [command], None
    for index, flag in enumerate(flags):
        if flag == "--json":
            argv.append(flag)
        elif index == bad or (fault == "extra" and index == len(flags) - 1):
            # a bad path is a directory or sits in a missing one, never a
            # file the run could create outside the fuzz directory
            paths = st.sampled_from([str(workdir), str(workdir / "missing" / "x"), ""])
            argv += [flag, draw(paths if flag in ("--ensemble", "--out") else VALUES)]
        elif flag == "--ensemble":
            ensemble = draw(ensemble_files())
            argv += [flag, str(workdir / "ensemble.json")]
        elif flag == "--out":
            argv += [flag, str(workdir / "sweep.csv")]
        elif flag == "--probs":
            argv += [flag, joined(draw(PRIORS[3 if command == "three-state" else draw(st.sampled_from([3, 4]))]))]
        else:
            argv += [flag, draw(VALID[flag])]
    return argv, ensemble


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_cli_exits_0_or_2_with_one_error_line(workdir):
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(requests(workdir))
    def check(request):
        argv, ensemble = request
        if ensemble is not None:
            (workdir / "ensemble.json").write_text(json.dumps(ensemble), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2), (argv, ensemble, err.getvalue())
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, ensemble, err.getvalue())
            assert err.getvalue().endswith("\n")
            assert [str(w.message) for w in caught] == [], (argv, ensemble)

    check()
