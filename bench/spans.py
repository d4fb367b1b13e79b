"""Spans around entdisc's public functions, recorded from outside the package.

``install`` rebinds each traced function in every loaded ``entdisc`` module
that holds it (and traced methods on their classes), so calls made inside the
package are seen too. Spans stay in memory as ``(name, start_ns, end_ns,
parent, op)`` tuples until the run writes them out; ``summarize`` turns them
into per-name call counts, total time and self time (a span minus its
children).
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path, span name). A constructor is traced through its
# __post_init__, which the dataclass __init__ calls on every construction.
TARGETS = (
    ("spectra", "ProbVector.__post_init__", "spectra.ProbVector"),
    ("spectra", "majorizes", "spectra.majorizes"),
    ("spectra", "mix", "spectra.mix"),
    ("spectra", "tensor", "spectra.tensor"),
    ("spectra", "entropy_bits", "spectra.entropy_bits"),
    ("states", "PureState.__post_init__", "states.PureState"),
    ("states", "PureState.overlap", "states.PureState.overlap"),
    ("states", "bell_states", "states.bell_states"),
    ("states", "BellFamily.states", "states.BellFamily.states"),
    ("states", "Ensemble.__post_init__", "states.Ensemble"),
    ("states", "reduced_spectrum", "states.reduced_spectrum"),
    ("states", "distinguishability_bound", "states.distinguishability_bound"),
    ("discrimination", "pointer_state", "discrimination.pointer_state"),
    ("discrimination", "perfect_discrimination_feasible", "discrimination.perfect_discrimination_feasible"),
    ("discrimination", "three_state_feasible", "discrimination.three_state_feasible"),
    ("discrimination", "assisted_alpha2_max", "discrimination.assisted_alpha2_max"),
    ("discrimination", "preserve_cost", "discrimination.preserve_cost"),
    ("discrimination", "locc_ensemble_feasible", "discrimination.locc_ensemble_feasible"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("sweep", "records_to_csv", "sweep.records_to_csv"),
    ("sweep", "write_csv", "sweep.write_csv"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "main", "cli.main"),
    ("cli", "load_ensemble_file", "cli.load_ensemble_file"),
)


def _qualified_name(base: str, args, kwargs) -> str:
    """Split run_sweep by mode and cli.main by subcommand."""
    if base == "sweep.run_sweep":
        return f"{base}.{kwargs.get('mode', args[0] if args else '?')}"
    if base == "cli.main":
        argv = kwargs.get("argv", args[0] if args else None) or sys.argv[1:]
        return f"{base}.{argv[0] if argv else '?'}"
    return base


class Tracer:
    """Collects spans; ``op`` tags each span with the request it belongs to."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, base: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        dynamic = base in ("sweep.run_sweep", "cli.main")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _qualified_name(base, args, kwargs) if dynamic else base
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.op)
                stack.pop()

        return traced


def install(tracer: Tracer):
    """Trace every target; returns a function that restores the originals."""
    modules = [m for n, m in list(sys.modules.items()) if n == "entdisc" or n.startswith("entdisc.")]
    undo = []
    for module_name, path, span_name in TARGETS:
        owner = sys.modules[f"entdisc.{module_name}"]
        head, _, attr = path.rpartition(".")
        if head:
            cls = getattr(owner, head)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(span_name, original))
            undo.append((cls, attr, original))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span_name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))

    def restore():
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)

    return restore


def summarize(spans, out: dict | None = None) -> dict[str, dict[str, int]]:
    """Per span name: calls, total_ns and self_ns, added into ``out`` if given.

    Parent indices refer to positions in ``spans``, so spans recorded by
    different processes are summarized one list at a time into one ``out``.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {} if out is None else out
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[index]
    return out
