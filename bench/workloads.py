"""The benchmark's three workloads: seeded inputs, closed-loop runs and checks.

Every workload is a closed loop with one client: a request is sent only after
the previous one has finished, and at most one command runs at a time, started
by the small ``spawner.py`` process. Work comes in rounds of a fixed make-up; a
round's random parameters
come from ``numpy.random.default_rng([seed, round_index])``, so the same seed
gives the same inputs and every run repeats the same operations in the same
shares. Expected values come from :mod:`oracle`, never from entdisc.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

CLOCK = time.perf_counter_ns
BENCH_DIR = Path(__file__).resolve().parent

# The console script's body: what an installed ``entdisc`` command runs.
LAUNCH_CLI = "import sys; from entdisc.cli import main; sys.exit(main())"

CSV_HEADER = "a2,c2,avg_ent_ebits,feasible_unassisted,alpha2_max,assist_cost_ebits,preserve_cost_ebits"


class Env:
    """Where the program and the scratch files live, and the process that starts commands.

    Use as a context manager: it starts ``spawner.py`` on entry and stops it,
    waiting for it to end, on exit.
    """

    def __init__(self, root: Path, out: Path):
        self.root, self.out = root, out
        self._spawner = None

    @property
    def child_env(self) -> dict:
        path = os.environ.get("PYTHONPATH")
        src = str(self.root / "src")
        return dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")

    def __enter__(self) -> "Env":
        self._spawner = subprocess.Popen(
            [sys.executable, "-S", str(BENCH_DIR / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, cwd=self.out, env=self.child_env, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()
        self._spawner.stdout.close()

    def spawn(self, argv: list, stdout: Path, stderr: Path) -> dict:
        self._spawner.stdin.write(json.dumps({"argv": argv, "stdout": str(stdout), "stderr": str(stderr)}) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner process ended")
        return json.loads(reply)


@dataclass
class Tally:
    """What one set of rounds did."""

    # Compact arrays, so the benchmark's own resident set barely grows with the count.
    latencies_ns: array = field(default_factory=lambda: array("q"))
    stamps_ns: array = field(default_factory=lambda: array("q"))  # middle of each request
    busy_ns: int = 0
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    peak_rss_kb: int = 0
    problems: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    # Traced sweeps: per-mode peak RSS, CSV sizes and each child's spans.
    rss_by_mode_kb: dict = field(default_factory=dict)
    csv_bytes: list = field(default_factory=list)
    child_spans: list = field(default_factory=list)

    def record(self, start_ns: int, latency_ns: int) -> None:
        self.latencies_ns.append(latency_ns)
        self.stamps_ns.append(start_ns + latency_ns // 2)
        self.busy_ns += latency_ns
        self.attempted += 1

    def fail(self, what: str, times: int = 1) -> None:
        self.failed += times
        self.failures[what] = self.failures.get(what, 0) + times

    def add_outcomes(self, other: "Tally") -> None:
        """Take over another tally's attempts, failures and check problems."""
        self.attempted += other.attempted
        for what, times in other.failures.items():
            self.fail(what, times)
        self.problems += other.problems

    @property
    def ops_per_s(self) -> float:
        return self.attempted / (self.busy_ns / 1e9)


@dataclass
class ChildResult:
    code: int
    latency_ns: int
    maxrss_kb: int
    stdout: str
    stderr: str


def run_child(env: Env, argv: list, spans_path: Path | None = None, launch: list | None = None) -> ChildResult:
    """Run one command in a fresh interpreter; its own peak RSS comes from wait4."""
    if launch is None:
        launch = [sys.executable, "-c", LAUNCH_CLI] if spans_path is None else [
            sys.executable, str(BENCH_DIR / "child.py"), str(spans_path)]
    out_path, err_path = env.out / "stdout.txt", env.out / "stderr.txt"
    reply = env.spawn(launch + [str(a) for a in argv], out_path, err_path)
    return ChildResult(reply["code"], reply["ns"], reply["maxrss_kb"], out_path.read_text(errors="replace"),
                       err_path.read_text(errors="replace"))


def closed_loop(run_round, env: Env, seed: int, seconds: float, min_requests: int, speed, **kwargs) -> Tally:
    """Whole rounds until ``seconds`` of request time and ``min_requests`` requests are done.

    ``speed`` probes the machine-speed reference before the first request,
    between requests and after the last one.
    """
    tally = Tally()
    speed.probe()
    for index in itertools.count():
        run_round(env, seed, index, tally, speed=speed, **kwargs)
        speed.maybe_probe()
        if tally.busy_ns >= seconds * 1e9 and tally.attempted >= min_requests:
            speed.probe()
            return tally


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _unit(rng) -> float:
    return float(rng.uniform(0.5, 1.0))


def _priors(rng, n: int) -> list[float]:
    return [float(p) for p in rng.dirichlet(np.ones(n))]


def _which(rng) -> list[int]:
    return [int(i) for i in rng.permutation(4)[:3]]


def _close(x, y, tol) -> bool:
    return abs(float(x) - float(y)) <= tol


# ---------------------------------------------------------------- point_analyses

# Operation kinds per round and their counts. Counts are fixed so that calls
# per operation repeat exactly; parameters are random per round.
POINT_MIX = (
    ("perfect_uniform", 8),
    ("perfect_priors", 4),
    ("three_state", 6),
    ("assisted", 4),
    ("preserve", 6),
    ("bounds", 2),
    ("ensemble", 6),
    ("locc", 4),
)
LOCC_DIMS = (2, 8, 32, 64)


def _family_point(rng, k: int) -> tuple[float, float]:
    """Occurrence 0 is the product corner, occurrence 1 lies on the diagonal."""
    if k == 0:
        return 1.0, 1.0
    if k == 1:
        u = _unit(rng)
        return u, u
    return _unit(rng), _unit(rng)


def _verdict_check(expected):
    feasible, ambiguous = expected

    def check(out):
        if not isinstance(out, bool):
            return f"verdict {out!r} is not a bool"
        if not ambiguous and out != feasible:
            return f"verdict {out} but the oracle says {feasible}"
        return None

    return check


def point_op(ed, kind: str, k: int, rng):
    """One operation: (call, check). ``call`` goes through entdisc's public API."""
    if kind in ("perfect_uniform", "perfect_priors"):
        a2, c2 = _family_point(rng, k)
        probs = _priors(rng, 4) if kind == "perfect_priors" else None
        lam = oracle.pointer_spectrum(oracle.family_matrices(a2, c2), probs or [0.25] * 4)

        def call():
            return ed.perfect_discrimination_feasible(ed.BellFamily.from_squared(a2, c2), probs)

        return call, _verdict_check(oracle.discrimination_verdict(lam))

    if kind == "three_state":
        a2, c2 = _family_point(rng, k)
        which = _which(rng)
        mats = oracle.family_matrices(a2, c2)
        lam = oracle.pointer_spectrum([mats[i] for i in which], [1 / 3] * 3)

        def call():
            return ed.three_state_feasible(ed.BellFamily.from_squared(a2, c2), which)

        return call, _verdict_check(oracle.discrimination_verdict(lam))

    if kind == "assisted":
        a2, c2 = _family_point(rng, k)
        alpha2 = oracle.alpha2_max_equal_priors(a2, c2)

        def call():
            return ed.assisted_alpha2_max(ed.BellFamily.from_squared(a2, c2))

        def check(out):
            if not (out.feasible and _close(out.alpha2_max, alpha2, 1e-12)
                    and _close(out.first_sum_bound, alpha2, 1e-12)
                    and _close(out.cost_ebits, oracle.binary_entropy(alpha2), 1e-10)):
                return f"assisted_alpha2_max({a2}, {c2}) = {out}, expected alpha2 {alpha2}"
            return None

        return call, check

    if kind == "preserve":
        a2, c2 = _family_point(rng, k)
        probs = _priors(rng, 4) if k % 2 else None
        expected = oracle.preserve_cost(a2, c2, probs or [0.25] * 4)

        def call():
            return ed.preserve_cost(ed.BellFamily.from_squared(a2, c2), probs)

        def check(out):
            return None if _close(out, expected, 1e-10) else f"preserve_cost {out} != {expected}"

        return call, check

    if kind == "bounds":
        a2, c2 = _family_point(rng, k + 2)
        probs = _priors(rng, 4)
        expected = oracle.distinguishability_bounds(oracle.family_matrices(a2, c2))

        def call():
            members = ed.BellFamily.from_squared(a2, c2).states()
            return ed.distinguishability_bound(ed.Ensemble(tuple(zip(probs, members))))

        def check(out):
            got = (out.n_robustness, out.n_rel_entropy, out.n_geometric)
            if not all(math.isclose(g, e, rel_tol=1e-9) for g, e in zip(got, expected)):
                return f"bounds {got} != {expected}"
            return None

        return call, check

    if kind == "ensemble":
        size = 2 + k % 3
        amps = []
        for _ in range(size):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            amps.append(v / np.linalg.norm(v))
        probs = _priors(rng, size)
        lam_expected = oracle.pointer_spectrum([oracle.state_matrix(v, 2, 2) for v in amps], probs)
        verdict = _verdict_check(oracle.discrimination_verdict(lam_expected))

        def call():
            states = [ed.PureState(v, 2, 2) for v in amps]
            ensemble = ed.Ensemble(tuple(zip(probs, states)))
            pointers = ed.bell_states()[:size]
            lam = ed.reduced_spectrum(ed.pointer_state(ensemble, pointers))
            target = ed.mix([(p, ed.reduced_spectrum(ptr)) for p, ptr in zip(probs, pointers)])
            return lam.entries, ed.majorizes(lam, target)

        def check(out):
            lam, feasible = out
            if not np.allclose(lam, lam_expected, rtol=0.0, atol=1e-10):
                return f"pointer spectrum {lam} != {lam_expected}"
            return verdict(feasible)

        return call, check

    if kind == "locc":
        dim = LOCC_DIMS[k % len(LOCC_DIMS)]
        weights = _priors(rng, 1 + k % 3)
        targets = [(w, [float(v) for v in rng.dirichlet(np.ones(dim))]) for w in weights]
        if k % 2 == 0:
            # A doubly stochastic image of the mixed target: feasible by construction.
            mixed = np.zeros(dim)
            for w, t in targets:
                mixed += w * np.sort(t)[::-1]
            flat = float(rng.uniform(0.0, 1.0))
            source = [float(v) for v in rng.permutation((1.0 - flat) * mixed + flat / dim)]
        else:
            source = [float(v) for v in rng.dirichlet(np.ones(dim))]
        expected = oracle.convertible(source, targets)

        def call():
            return ed.locc_ensemble_feasible(ed.ProbVector(source), [(w, ed.ProbVector(t)) for w, t in targets])

        return call, _verdict_check(expected)

    raise ValueError(kind)


def point_round(env: Env, seed: int, index: int, tally: Tally, ed=None, tracer=None, speed=None) -> None:
    """One round of in-process calls; the caller probes the speed reference between rounds."""
    rng = _rng(seed, index)
    ops = [(kind, *point_op(ed, kind, k, rng)) for kind, count in POINT_MIX for k in range(count)]
    ops = [ops[i] for i in rng.permutation(len(ops))]
    results, timings = [], []
    for i, (_, call, _) in enumerate(ops):
        if tracer is not None:
            tracer.op = tally.attempted + i
        t0 = CLOCK()
        try:
            out = call()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = exc
        timings.append((t0, CLOCK() - t0))
        results.append(out)
    for t0, latency in timings:
        tally.record(t0, latency)
    tally.rounds += 1
    for (kind, _, check), out in zip(ops, results):
        if isinstance(out, Exception):
            tally.fail(f"{kind}: {type(out).__name__}: {out}")
            continue
        problem = check(out)
        if problem:
            tally.problems.append(f"{kind}: {problem}")


# -------------------------------------------------------------------- grid_sweep

# (mode, grid_n, parameters) per round, in order of time taken; consecutive
# kinds differ by 1.3x to 1.7x. Sorted by time, the two grid-101 assist
# sweeps with priors fill the middle third, so the median lies inside that
# kind, and the 75th percentile lies in the middle of the grid-141 uniform
# assist sweeps, rather than between two kinds. The grid-351 preserve sweep
# sets peak RSS: its records and arrays take about twice what the interpreter
# and numpy take.
GRID_ROUND = (
    ("feasible3", 51, "which"),
    ("preserve", 151, "priors"),
    ("assist", 101, "priors"),
    ("assist", 101, "priors"),
    ("assist", 141, "uniform"),
    ("preserve", 351, "uniform"),
)
CSV_SAMPLE_ROWS = 12
# Printed costs are allowed this much rounding outside their exact range: the
# priors passed on the command line sum to 1 only within a few ulps.
RANGE_SLACK = 1e-12


def _fmt(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def sweep_request(rng, mode: str, grid_n: int, variant: str) -> tuple[list, dict]:
    params = {"mode": mode, "grid_n": grid_n, "probs": None, "which": [0, 1, 2]}
    argv = ["sweep", "--mode", mode, "--grid-n", grid_n]
    if variant == "priors":
        params["probs"] = _priors(rng, 4)
        argv += ["--probs", _fmt(params["probs"])]
    elif variant == "which":
        params["which"] = _which(rng)
        argv += ["--which", ",".join(map(str, params["which"]))]
    return argv, params


def _parse_bool(text: str):
    return {"true": True, "false": False}.get(text)


def check_sweep_csv(text: str, params: dict, rng) -> str | None:
    """Check a sweep CSV by properties the method must have and an oracle sample."""
    mode, n = params["mode"], params["grid_n"]
    probs = params["probs"] or ([1 / 3] * 3 if mode == "feasible3" else [0.25] * 4)
    which = params["which"] if mode == "feasible3" else [0, 1, 2, 3]
    lines = text.split("\n")
    if lines[0] != CSV_HEADER:
        return f"header {lines[0]!r}"
    if lines[-1] != "" or len(lines) != n * n + 2:
        return f"{len(lines) - 2} rows, expected {n * n}"
    rows = [line.split(",") for line in lines[1:-1]]
    axis = np.array(oracle.lattice(n))
    a2 = np.array([float(r[0]) for r in rows])
    c2 = np.array([float(r[1]) for r in rows])
    if not (np.allclose(a2, np.repeat(axis, n), rtol=0, atol=1e-12)
            and np.allclose(c2, np.tile(axis, n), rtol=0, atol=1e-12)):
        return "rows are not the row-major (a2, c2) lattice"
    filled = {"assist": (3, 4, 5), "preserve": (6,), "feasible3": (3,)}[mode]
    if any((r[col] != "") != (col in filled) for r in rows for col in (3, 4, 5, 6)):
        return f"columns filled other than {filled}"
    if mode == "preserve":
        cost = np.array([float(r[6]) for r in rows])
        if cost.min() < -RANGE_SLACK or cost.max() > 2.0 + RANGE_SLACK:
            return f"preserve_cost_ebits outside [0, 2]: {cost.min()} .. {cost.max()}"
    if mode == "assist" and params["probs"] is None:
        feasible = [k for k, r in enumerate(rows) if r[3] == "true"]
        if feasible != [n * n - 1]:
            return f"feasible_unassisted true at rows {feasible[:5]}, expected only at (1, 1)"
    sample = [0, n - 1, n * (n - 1), n * n - 1] + [int(k) for k in rng.integers(0, n * n, CSV_SAMPLE_ROWS)]
    for k in sample:
        x, y = float(axis[k // n]), float(axis[k % n])
        row = rows[k]
        if not _close(row[2], oracle.average_entanglement(x, y, probs, which), 1e-10):
            return f"avg_ent_ebits at ({x}, {y}) is {row[2]}"
        if mode in ("assist", "feasible3"):
            mats = oracle.family_matrices(x, y)
            lam = oracle.pointer_spectrum([mats[i] for i in which], probs)
            feasible, ambiguous = oracle.discrimination_verdict(lam)
            if not ambiguous and _parse_bool(row[3]) != feasible:
                return f"feasible_unassisted at ({x}, {y}) is {row[3]}, oracle says {feasible}"
        if mode == "assist":
            alpha2 = oracle.alpha2_max_equal_priors(x, y)
            if not (_close(row[4], alpha2, 1e-11) and _close(row[5], oracle.binary_entropy(alpha2), 1e-10)):
                return f"alpha2_max/assist_cost at ({x}, {y}) are {row[4]}, {row[5]}; alpha2 is {alpha2}"
        if mode == "preserve" and not _close(row[6], oracle.preserve_cost(x, y, probs), 1e-10):
            return f"preserve_cost_ebits at ({x}, {y}) is {row[6]}"
    return None


def _passes(tally: Tally, traced_tally: Tally | None):
    """(tally, traced) per run of a request: once, or untraced then traced back to back."""
    return [(tally, False)] if traced_tally is None else [(tally, False), (traced_tally, True)]


def _request(env: Env, tally: Tally, argv: list, spans_path: Path | None, speed) -> ChildResult:
    """Run and count one child request, probing the speed reference first when due."""
    if speed is not None:
        speed.maybe_probe()
    start = CLOCK()
    result = run_child(env, argv, spans_path)
    tally.record(start, result.latency_ns)
    tally.peak_rss_kb = max(tally.peak_rss_kb, result.maxrss_kb)
    return result


def grid_round(env: Env, seed: int, index: int, tally: Tally, traced_tally: Tally | None = None,
               speed=None) -> None:
    """One round of sweeps. With ``traced_tally``, each sweep also runs traced right after."""
    rng = _rng(seed, index)
    for slot, (mode, grid_n, variant) in enumerate(GRID_ROUND):
        argv, params = sweep_request(rng, mode, grid_n, variant)
        for target, traced in _passes(tally, traced_tally):
            csv_path = env.out / f"sweep-{slot}.csv"
            csv_path.unlink(missing_ok=True)
            spans_path = env.out / f"spans-sweep-{slot}.json" if traced else None
            result = _request(env, target, argv + ["--out", csv_path], spans_path, speed)
            if result.code != 0:
                target.fail(f"sweep {mode} {grid_n}: exit {result.code}: {result.stderr.strip()[-200:]}")
                continue
            if traced:
                target.rss_by_mode_kb[mode] = max(target.rss_by_mode_kb.get(mode, 0), result.maxrss_kb)
                target.csv_bytes.append(csv_path.stat().st_size)
                target.child_spans.append(json.loads(spans_path.read_text(encoding="utf-8"))["spans"])
            problem = check_sweep_csv(csv_path.read_text(encoding="utf-8"), params, rng)
            if problem:
                target.problems.append(f"sweep {mode} {grid_n}: {problem}")
    for target, _ in _passes(tally, traced_tally):
        target.rounds += 1


# ------------------------------------------------------------------ cli_requests

NAN_STATES = (
    '{"states": [{"amplitudes": [[NaN, 0], [0, 0], [0, 0], [1, 0]], "dim_a": 2, "dim_b": 2},'
    ' {"amplitudes": [[0, 0], [1, 0], [0, 0], [0, 0]], "dim_a": 2, "dim_b": 2}], "probs": [0.5, 0.5]}'
)

# Malformed requests that exit 2 with a one-line reason today.
MALFORMED = (
    ("a2 out of range", ["discriminate", "--a2", "0.3", "--c2", "0.7"]),
    ("unnormalized source", ["convert", "--source", "0.5,0.6", "--target", "1"]),
    ("missing ensemble file", ["discriminate", "--ensemble", "missing.json"]),
)
# Malformed requests that should exit 2 but do not, because of faults in
# entdisc's input checks; each fails on every round whatever the seed.
KNOWN_FAULTS = (
    ("NaN amplitude in a states file exits 1", ["discriminate", "--ensemble", "nan-states.json"]),
    ("--which 0.9,1,2 is read as 0,1,2", ["three-state", "--a2", "0.9", "--c2", "0.8", "--which", "0.9,1,2"]),
    ("priors summing to 3.6 are accepted", ["sweep", "--mode", "preserve", "--grid-n", "3",
                                            "--probs", "0.9,0.9,0.9,0.9"]),
)
CLI_KINDS = (
    "discriminate", "discriminate_json", "discriminate_priors_json", "discriminate_corner",
    "family_file", "family_file_json", "states_file", "states_file_json",
    "three_state", "three_state_priors_json", "assist_cost", "assist_cost_json", "assist_cost_diagonal_json",
    "preserve_cost", "preserve_cost_priors_json", "bounds", "bounds_priors_json", "bounds_states_file_json",
    "bounds_family_file", "convert", "convert_weighted_json", "convert_majorized_json",
)
CLI_COPIES = 2


def _parse_output(stdout: str, as_json: bool) -> dict:
    if as_json:
        return json.loads(stdout)
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _value(out: dict, key: str, as_json: bool):
    """A key's value, with text values turned into bools, floats or float lists."""
    value = out[key]
    if as_json:
        return value
    if value in ("true", "false"):
        return value == "true"
    if ", " in value:
        return [float(v) for v in value.split(", ")]
    return float(value)


def _states_file(rng, path: Path, size: int) -> list:
    """Write a random 'states' ensemble file; returns the member matrices and priors."""
    states, mats = [], []
    for _ in range(size):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        states.append({"amplitudes": [[float(z.real), float(z.imag)] for z in v], "dim_a": 2, "dim_b": 2})
        mats.append(oracle.state_matrix(v, 2, 2))
    probs = _priors(rng, size)
    path.write_text(json.dumps({"states": states, "probs": probs}), encoding="utf-8")
    return mats, probs


def _convert_args(rng, kind: str):
    dim = int(rng.integers(2, 9))
    if kind == "convert":
        targets = [(1.0, [float(v) for v in rng.dirichlet(np.ones(dim))])]
        argv = ["--target", _fmt(targets[0][1])]
    else:
        weights = _priors(rng, int(rng.integers(2, 4)))
        targets = [(w, [float(v) for v in rng.dirichlet(np.ones(dim))]) for w in weights]
        argv = [a for w, t in targets for a in ("--target", f"{w!r}:{_fmt(t)}")]
    if kind == "convert_majorized_json":
        mixed = np.zeros(dim)
        for w, t in targets:
            mixed += w * np.sort(t)[::-1]
        flat = float(rng.uniform(0.0, 1.0))
        source = [float(v) for v in rng.permutation((1.0 - flat) * mixed + flat / dim)]
    else:
        source = [float(v) for v in rng.dirichlet(np.ones(dim))]
    return ["convert", "--source", _fmt(source)] + argv, oracle.convertible(source, targets)


def cli_request(rng, kind: str, copy: int, files: Path):
    """One valid request: (argv, check). ``check(stdout)`` returns a problem or None."""
    as_json = kind.endswith("_json")
    flag = ["--json"] if as_json else []
    a2, c2 = _unit(rng), _unit(rng)
    if kind == "discriminate_corner":
        a2, c2 = (1.0, 1.0) if copy == 0 else (a2, a2)
    if kind == "assist_cost_diagonal_json":
        c2 = a2
    family = ["--a2", repr(a2), "--c2", repr(c2)]
    expected: dict = {}
    tolerances: dict = {}

    if kind.startswith(("discriminate", "family_file", "states_file")):
        probs = _priors(rng, 4) if kind == "discriminate_priors_json" else [0.25] * 4
        if kind.startswith("states_file"):
            path = files / f"states-{kind}-{copy}.json"
            mats, probs = _states_file(rng, path, int(rng.integers(2, 5)))
            argv = ["discriminate", "--ensemble", path]
        elif kind.startswith("family_file"):
            probs = _priors(rng, 4)
            path = files / f"family-{kind}-{copy}.json"
            path.write_text(json.dumps({"family": {"a2": a2, "c2": c2}, "probs": probs}), encoding="utf-8")
            mats, argv = oracle.family_matrices(a2, c2), ["discriminate", "--ensemble", path]
        else:
            mats, argv = oracle.family_matrices(a2, c2), ["discriminate"] + family
            if kind == "discriminate_priors_json":
                argv += ["--probs", _fmt(probs)]
            expected.update(a2=a2, c2=c2)
        feasible, ambiguous = oracle.discrimination_verdict(oracle.pointer_spectrum(mats, probs))
        if not ambiguous:
            expected["feasible_unassisted"] = feasible
    elif kind.startswith("three_state"):
        which = _which(rng)
        probs = _priors(rng, 3) if "priors" in kind else [1 / 3] * 3
        argv = ["three-state"] + family + ["--which", ",".join(map(str, which))]
        if "priors" in kind:
            argv += ["--probs", _fmt(probs)]
        mats = oracle.family_matrices(a2, c2)
        feasible, ambiguous = oracle.discrimination_verdict(oracle.pointer_spectrum([mats[i] for i in which], probs))
        expected.update(a2=a2, c2=c2, which=[float(i) for i in which] if not as_json else which)
        if not ambiguous:
            expected["feasible_unassisted"] = feasible
    elif kind.startswith("assist_cost"):
        alpha2 = oracle.alpha2_max_equal_priors(a2, c2)
        argv = ["assist-cost"] + family
        expected.update(a2=a2, c2=c2, feasible=True, alpha2_max=alpha2, first_sum_bound=alpha2,
                        assist_cost_ebits=oracle.binary_entropy(alpha2))
        tolerances.update(alpha2_max=1e-11, first_sum_bound=1e-11, assist_cost_ebits=1e-10)
    elif kind.startswith("preserve_cost"):
        probs = _priors(rng, 4) if "priors" in kind else [0.25] * 4
        argv = ["preserve-cost"] + family + (["--probs", _fmt(probs)] if "priors" in kind else [])
        expected.update(a2=a2, c2=c2, preserve_cost_ebits=oracle.preserve_cost(a2, c2, probs),
                        preserve_spectrum=sorted(oracle.preserve_vector(a2, c2, probs), reverse=True))
        tolerances.update(preserve_cost_ebits=1e-10, preserve_spectrum=1e-11)
    elif kind.startswith("bounds"):
        if kind == "bounds_states_file_json":
            path = files / f"states-{kind}-{copy}.json"
            mats, _ = _states_file(rng, path, int(rng.integers(2, 5)))
            argv = ["bounds", "--ensemble", path]
        elif kind == "bounds_family_file":
            path = files / f"family-{kind}-{copy}.json"
            path.write_text(json.dumps({"family": {"a2": a2, "c2": c2}, "probs": _priors(rng, 4)}),
                            encoding="utf-8")
            mats, argv = oracle.family_matrices(a2, c2), ["bounds", "--ensemble", path]
        else:
            mats = oracle.family_matrices(a2, c2)
            argv = ["bounds"] + family + (["--probs", _fmt(_priors(rng, 4))] if "priors" in kind else [])
        rob, rel, geo = oracle.distinguishability_bounds(mats)
        expected.update(n_robustness=rob, n_rel_entropy=rel, n_geometric=geo)
        tolerances.update({k: 1e-9 * v for k, v in expected.items()})
    else:
        argv, (feasible, ambiguous) = _convert_args(rng, kind)
        if not ambiguous:
            expected["feasible"] = feasible
    argv += flag

    def check(stdout: str) -> str | None:
        try:
            out = _parse_output(stdout, as_json)
            for key, want in expected.items():
                got = _value(out, key, as_json)
                tol = tolerances.get(key, 1e-11)
                if isinstance(want, bool) or isinstance(want, list) and not isinstance(got, list):
                    ok = got == want
                elif isinstance(want, list):
                    ok = len(got) == len(want) and all(_close(g, w, tol) for g, w in zip(got, want))
                else:
                    ok = _close(got, want, tol)
                if not ok:
                    return f"{key} = {got!r}, expected {want!r}"
        except (KeyError, ValueError, TypeError) as exc:
            return f"unreadable output {stdout[:200]!r}: {exc!r}"
        return None

    return argv, check


def cli_requests(env: Env, seed: int, index: int):
    """A round's requests: (label, argv, expected exit code, check or None, known fault)."""
    rng = _rng(seed, index)
    files = env.out / "cli"
    files.mkdir(exist_ok=True)
    (files / "nan-states.json").write_text(NAN_STATES, encoding="utf-8")
    requests = []
    for copy in range(CLI_COPIES):
        for kind in CLI_KINDS:
            argv, check = cli_request(rng, kind, copy, files)
            requests.append((kind, argv, 0, check, False))
    for label, argv in MALFORMED:
        requests.append((label, [files / a if a.endswith(".json") else a for a in argv], 2, None, False))
    for label, argv in KNOWN_FAULTS:
        requests.append((label, [files / a if a.endswith(".json") else a for a in argv], 2, None, True))
    return [requests[i] for i in rng.permutation(len(requests))]


def check_cli_result(label: str, expected_code: int, check, code: int, stdout: str, stderr: str, tally: Tally):
    if code != expected_code:
        tally.fail(f"{label}: exit {code}, expected {expected_code}")
        return
    if check is None:
        lines = stderr.strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            tally.problems.append(f"{label}: stderr is not a one-line reason: {stderr[:200]!r}")
        return
    problem = check(stdout)
    if problem:
        tally.problems.append(f"{label}: {problem}")


def cli_round(env: Env, seed: int, index: int, tally: Tally, traced_tally: Tally | None = None,
              speed=None) -> None:
    """One round of cold CLI requests. With ``traced_tally``, each also runs traced right after."""
    for label, argv, expected_code, check, _ in cli_requests(env, seed, index):
        for target, traced in _passes(tally, traced_tally):
            result = _request(env, target, argv, env.out / "spans-cli.json" if traced else None, speed)
            check_cli_result(label, expected_code, check, result.code, result.stdout, result.stderr, target)
    for target, _ in _passes(tally, traced_tally):
        target.rounds += 1


def cli_in_process(env: Env, seed: int, index: int, tally: Tally, cli_module) -> None:
    """The round's valid requests through ``entdisc.cli.main`` in this process (warm)."""
    for label, argv, expected_code, check, _ in cli_requests(env, seed, index):
        if expected_code != 0:
            continue
        stdout, stderr = io.StringIO(), io.StringIO()
        start = CLOCK()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_module.main([str(a) for a in argv])
        tally.record(start, CLOCK() - start)
        check_cli_result(label, expected_code, check, code, stdout.getvalue(), stderr.getvalue(), tally)
    tally.rounds += 1
