"""The bench's traced layer table must see every span it binds to.

``bench/run.py --trace 1`` divides each traced span's time by its call count;
a name in ``bench/spans.TARGETS`` that the package stops calling gives 0/0, and
the run's last line becomes a bare ``NaN`` instead of a result. One point
round, one in-process CLI round and one ``sweep --out`` call, all traced, must
reach every target and leave every per-point layer metric finite.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

import entdisc
import entdisc.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_MODULES = ("run", "spans", "speed", "workloads", "oracle")
# Span names that spans.Tracer suffixes per call: run_sweep by mode, cli.main by subcommand.
SUFFIXED = ("sweep.run_sweep", "cli.main")


@pytest.fixture
def bench(monkeypatch):
    """The bench's run, spans and workloads modules, importable only for the test's duration."""
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        yield tuple(importlib.import_module(name) for name in ("run", "spans", "workloads"))
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


def test_traced_run_calls_every_target(bench, tmp_path):
    run, spans, workloads = bench
    tally, tracer = workloads.Tally(), spans.Tracer()
    restore = spans.install(tracer)
    try:
        workloads.point_round(None, 1, 0, tally, ed=entdisc, tracer=tracer)
        workloads.cli_in_process(workloads.Env(root=BENCH.parent, out=tmp_path), 1, 0, tally, entdisc.cli)
        assert entdisc.cli.main(["sweep", "--mode", "preserve", "--grid-n", "3", "--out", str(tmp_path / "s.csv")]) == 0
    finally:
        restore()
    assert tally.problems == [] and tally.failed == 0, (tally.problems, tally.failures)
    summary = spans.summarize(tracer.spans)
    missing = [
        name for _, _, name in spans.TARGETS
        if name not in summary and not (name in SUFFIXED and any(s.startswith(name + ".") for s in summary))
    ]
    assert missing == []
    metrics = run.point_layer_metrics(summary, tally.attempted)
    assert [name for name, (value, _) in metrics.items() if not math.isfinite(value)] == []
