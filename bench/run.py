"""Benchmark of entdisc: per-point analyses, grid sweeps and CLI requests.

Usage (from the repository root):

    python3 bench/run.py --workload point_analyses --seed 1 --seconds 20 --trace 0

The program is taken from ``src/`` of the checkout the script sits in. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones, measured untraced; with ``--trace 1`` they are per-layer
timings and counts from spans recorded around entdisc's public functions,
plus the tracing overhead. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

import spans  # noqa: E402
import speed  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("point_analyses", "grid_sweep", "cli_requests")

# (tail percentile, least requests per run) per workload. The percentile is
# the highest of 99, 90 and 75 with at least ten samples beyond it at that
# count. 99.9 is not used: on a shared host the slowest 0.1% of ~1 ms calls
# are scheduler preemptions, and it spread by more than its median between runs.
TAIL = {"point_analyses": (99.0, 1_000), "grid_sweep": (75.0, 40), "cli_requests": (90.0, 150)}

SETUP_STARTS = 5

# Cold start plus one warm-up request, per workload.
SETUP_COMMANDS = {
    "point_analyses": ["-c", "import entdisc as ed; "
                       "ed.perfect_discrimination_feasible(ed.BellFamily.from_squared(0.8, 0.7))"],
    "grid_sweep": ["-c", wl.LAUNCH_CLI, "sweep", "--mode", "preserve", "--grid-n", "11", "--out", "warm-up.csv"],
    "cli_requests": ["-c", wl.LAUNCH_CLI, "discriminate", "--a2", "0.8", "--c2", "0.7"],
}

# Fixed amounts of work for the traced run.
TRACE_POINT_BLOCKS = 6
TRACE_POINT_ROUNDS = 25  # per block
TRACE_CLI_REPEATS = 3
TRACE_IMPORT_STARTS = 5
WARM_UP_ROUND = 1_000_000  # round index of the untimed warm-up round


def setup_seconds(env: wl.Env, workload: str, tally: wl.Tally) -> tuple[float, float]:
    """Median of several cold starts, each through one warm-up request: (scaled, raw) seconds."""
    track = speed.startup_track(lambda launch: wl.run_child(env, [], launch=launch).latency_ns)
    starts = wl.Tally()
    for _ in range(SETUP_STARTS):
        track.probe()
        start = wl.CLOCK()
        result = wl.run_child(env, [], launch=[sys.executable] + SETUP_COMMANDS[workload])
        starts.record(start, result.latency_ns)
        if result.code != 0:
            tally.problems.append(f"set-up command exited {result.code}: {result.stderr.strip()[-200:]}")
    track.probe()
    raw = np.array(starts.latencies_ns) / 1e9
    return float(np.median(raw * track.scale(starts.stamps_ns))), float(np.median(raw))


def import_entdisc():
    sys.path.insert(0, str(ROOT / "src"))
    import entdisc
    import entdisc.cli

    return entdisc


def point_rounds(env, seed, indices, tally, ed, tracer=None):
    for index in indices:
        wl.point_round(env, seed, index, tally, ed=ed, tracer=tracer)


def end_to_end(workload: str, latencies_ns, setup: float, peak_rss_kb: int) -> dict:
    latencies_ms = np.asarray(latencies_ns, dtype=float) / 1e6
    percentile, _ = TAIL[workload]
    return {
        "setup_s": (setup, "s"),
        "ops_per_s": (latencies_ms.size / (latencies_ms.sum() / 1e3), "1/s"),
        "latency_p50_ms": (float(np.percentile(latencies_ms, 50)), "ms"),
        "latency_tail_ms": (float(np.percentile(latencies_ms, percentile)), "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }


def run_untraced(env: wl.Env, workload: str, seed: int, seconds: float) -> tuple[wl.Tally, dict, dict]:
    """End-to-end metrics, scaled by the machine-speed reference, and the same unscaled."""
    tally = wl.Tally()
    setup, setup_raw = setup_seconds(env, workload, tally)
    _, min_requests = TAIL[workload]
    if workload == "point_analyses":
        ed = import_entdisc()
        wl.point_round(env, seed, WARM_UP_ROUND, wl.Tally(), ed=ed)
        track = speed.in_process_track()
        work = wl.closed_loop(wl.point_round, env, seed, seconds, min_requests, track, ed=ed)
        work.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif workload == "grid_sweep":
        track = speed.in_process_track()
        work = wl.closed_loop(wl.grid_round, env, seed, seconds, min_requests, track)
    else:
        track = speed.startup_track(lambda launch: wl.run_child(env, [], launch=launch).latency_ns)
        work = wl.closed_loop(wl.cli_round, env, seed, seconds, min_requests, track)
    work.problems = tally.problems + work.problems
    scaled = np.asarray(work.latencies_ns, dtype=float) * track.scale(work.stamps_ns)
    return (work, end_to_end(workload, scaled, setup, work.peak_rss_kb),
            end_to_end(workload, work.latencies_ns, setup_raw, work.peak_rss_kb))


def _layer(summary: dict, name: str) -> dict:
    return summary.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0})


def _per_call(summary, name, key="total_ns", scale=1e3):
    entry = _layer(summary, name)
    return entry[key] / entry["calls"] / scale if entry["calls"] else float("nan")


def point_layer_metrics(summary: dict, ops: int) -> dict:
    us = lambda name, key="total_ns": (_per_call(summary, name, key), "us")  # noqa: E731
    per_op = lambda name: (_layer(summary, name)["calls"] / ops, "calls/op")  # noqa: E731
    d = "discrimination."
    return {
        "spectra.ProbVector.us_per_call": us("spectra.ProbVector"),
        "spectra.ProbVector.calls_per_op": per_op("spectra.ProbVector"),
        "spectra.majorizes.us_per_call": us("spectra.majorizes"),
        "spectra.majorizes.calls_per_op": per_op("spectra.majorizes"),
        "spectra.mix.us_per_call": us("spectra.mix"),
        "spectra.tensor.us_per_call": us("spectra.tensor"),
        "spectra.entropy_bits.us_per_call": us("spectra.entropy_bits"),
        "states.PureState.us_per_call": us("states.PureState"),
        "states.PureState.calls_per_op": per_op("states.PureState"),
        "states.PureState.overlap.calls_per_op": per_op("states.PureState.overlap"),
        "states.bell_states.calls_per_op": per_op("states.bell_states"),
        "states.BellFamily.states.us_per_call": us("states.BellFamily.states"),
        "states.Ensemble.us_per_call": us("states.Ensemble"),
        "states.reduced_spectrum.us_per_call": us("states.reduced_spectrum"),
        "states.reduced_spectrum.calls_per_op": per_op("states.reduced_spectrum"),
        "states.distinguishability_bound.us_per_call": us("states.distinguishability_bound"),
        d + "pointer_state.self_us_per_call": us(d + "pointer_state", "self_ns"),
        d + "perfect_discrimination_feasible.us_per_call": us(d + "perfect_discrimination_feasible"),
        d + "perfect_discrimination_feasible.self_us_per_call": us(d + "perfect_discrimination_feasible", "self_ns"),
        d + "three_state_feasible.us_per_call": us(d + "three_state_feasible"),
        d + "assisted_alpha2_max.us_per_call": us(d + "assisted_alpha2_max"),
        d + "assisted_alpha2_max.self_us_per_call": us(d + "assisted_alpha2_max", "self_ns"),
        d + "preserve_cost.us_per_call": us(d + "preserve_cost"),
        d + "locc_ensemble_feasible.us_per_call": us(d + "locc_ensemble_feasible"),
    }


def sweep_layer_metrics(tally: wl.Tally) -> dict:
    summary, points = {}, {}
    for child_spans in tally.child_spans:
        spans.summarize([tuple(s) for s in child_spans], summary)
    for mode, grid_n, _ in wl.GRID_ROUND:
        points[mode] = points.get(mode, 0) + grid_n * grid_n * tally.rounds
    metrics = {}
    for mode in ("assist", "preserve", "feasible3"):
        seconds = _layer(summary, f"sweep.run_sweep.{mode}")["total_ns"] / 1e9
        metrics[f"sweep.run_sweep.{mode}.points_per_s"] = (points[mode] / seconds if seconds else float("nan"), "1/s")
    for mode in ("assist", "preserve", "feasible3"):
        metrics[f"sweep.run_sweep.{mode}.peak_rss_mb"] = (tally.rss_by_mode_kb.get(mode, 0) / 1024, "MB")
    metrics["sweep.records_to_csv.s"] = (_per_call(summary, "sweep.records_to_csv", scale=1e9), "s")
    metrics["sweep.csv.mb"] = (statistics.mean(tally.csv_bytes) / 1e6 if tally.csv_bytes else float("nan"), "MB")
    metrics["sweep.write_csv.s"] = (_per_call(summary, "sweep.write_csv", scale=1e9), "s")
    return metrics


def cli_layer_metrics(env: wl.Env, seed: int, ed, correctness: wl.Tally) -> tuple[dict, list]:
    numpy_ns, entdisc_ns = [], []
    for k in range(TRACE_IMPORT_STARTS):
        path = env.out / f"spans-import-{k}.json"
        result = wl.run_child(env, [], spans_path=path)
        if result.code != 0:
            correctness.problems.append(f"import-timing child exited {result.code}")
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        numpy_ns.append(record["import_numpy_ns"])
        entdisc_ns.append(record["import_entdisc_ns"])
    wl.cli_in_process(env, seed, 0, correctness, ed.cli)  # warm-up
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        for _ in range(TRACE_CLI_REPEATS):
            wl.cli_in_process(env, seed, 0, correctness, ed.cli)
    finally:
        restore()
    summary = spans.summarize(tracer.spans)
    ms = lambda name: (_per_call(summary, name, scale=1e6), "ms")  # noqa: E731
    metrics = {
        "cli.import_entdisc.ms": (statistics.median(entdisc_ns) / 1e6 if entdisc_ns else float("nan"), "ms"),
        "cli.import_numpy.ms": (statistics.median(numpy_ns) / 1e6 if numpy_ns else float("nan"), "ms"),
        "cli.build_parser.ms": ms("cli.build_parser"),
    }
    for sub in ("discriminate", "three-state", "assist-cost", "preserve-cost", "bounds", "convert"):
        metrics[f"cli.main.{sub}.ms"] = ms(f"cli.main.{sub}")
    metrics["cli.load_ensemble_file.ms"] = ms("cli.load_ensemble_file")
    return metrics, tracer.spans


def run_traced(env: wl.Env, workload: str, seed: int) -> tuple[wl.Tally, dict, dict]:
    """Per-layer metrics of every module, and the tracing overhead on ``workload``.

    The workload's own requests run untraced and traced on identical inputs;
    the difference in ops_per_s is the overhead. Layers the workload does not
    reach are measured by fixed traced passes over the other workloads' inputs.
    Times and rates are scaled by one factor for the run: nominal over the
    median of the in-process speed reference probed between passes.
    """
    ed = import_entdisc()
    track = speed.in_process_track()
    track.probe()
    own_plain, own_traced = wl.Tally(), wl.Tally()
    extra = wl.Tally()  # layer passes: checked, but not counted as attempted

    point_tracer = spans.Tracer()
    point_tally = own_traced if workload == "point_analyses" else extra
    wl.point_round(env, seed, WARM_UP_ROUND, wl.Tally(), ed=ed)
    ops_before = point_tally.attempted
    # Untraced and traced blocks alternate, so drift in machine speed falls on both.
    for block in range(TRACE_POINT_BLOCKS):
        indices = range(block * TRACE_POINT_ROUNDS, (block + 1) * TRACE_POINT_ROUNDS)
        if workload == "point_analyses":
            point_rounds(env, seed, indices, own_plain, ed)
        restore = spans.install(point_tracer)
        try:
            point_rounds(env, seed, indices, point_tally, ed, point_tracer)
        finally:
            restore()
        track.probe()
    point_ops = point_tally.attempted - ops_before
    metrics = point_layer_metrics(spans.summarize(point_tracer.spans), point_ops)

    if workload == "grid_sweep":
        grid_traced = own_traced
        wl.grid_round(env, seed, 0, own_plain, own_traced, speed=track)
    else:
        grid_traced = wl.Tally()
        wl.grid_round(env, seed, 0, wl.Tally(), grid_traced, speed=track)
        extra.add_outcomes(grid_traced)
    metrics.update(sweep_layer_metrics(grid_traced))

    if workload == "cli_requests":
        wl.cli_round(env, seed, 0, own_plain, own_traced, speed=track)
    cli_metrics, cli_spans = cli_layer_metrics(env, seed, ed, extra)
    metrics.update(cli_metrics)
    track.probe()
    factor = speed.NOMINAL_KERNEL_NS / statistics.median(track.probe_ns)
    for name, (value, unit) in metrics.items():
        if unit in ("us", "ms", "s"):
            metrics[name] = (value * factor, unit)
        elif unit == "1/s":
            metrics[name] = (value / factor, unit)

    overhead = 100.0 * (1.0 - own_traced.ops_per_s / own_plain.ops_per_s)
    metrics["trace.overhead_pct"] = (overhead, "%")

    own = wl.Tally()
    own.add_outcomes(own_plain)
    own.add_outcomes(own_traced)
    if extra.failed:
        own.problems.append(f"operations failed in the layer passes: {extra.failures}")
    own.problems += extra.problems
    trace = {"point": point_tracer.spans, "sweep_children": grid_traced.child_spans, "cli_in_process": cli_spans}
    return own, metrics, trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entdisc" / "__init__.py").is_file():
        print(f"error: no entdisc sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 1
    out = BENCH_DIR / "_out"
    out.mkdir(exist_ok=True)
    trace = None
    with wl.Env(root=ROOT, out=out) as env:
        if args.trace:
            tally, metrics, trace = run_traced(env, args.workload, args.seed)
        else:
            tally, metrics, raw = run_untraced(env, args.workload, args.seed, args.seconds)
            print("unscaled: " + json.dumps({name: value for name, (value, _) in raw.items()}), file=sys.stderr)

    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for what, n in tally.failures.items():
        print(f"failed x{n}: {what}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (env.out / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    if trace is not None:
        (env.out / f"trace-{stem}.json").write_text(json.dumps(trace), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
