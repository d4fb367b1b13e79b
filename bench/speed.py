"""A machine-speed reference, measured between requests, for scaling times.

On a shared host the same code runs up to 1.9 times slower for stretches of
seconds to minutes, because of load from outside this process; CPU time
tracks wall time, so the slowdown is not time spent waiting to run. Raw
request times then spread more between runs than any change worth detecting.
So the benchmark times, between its requests, a fixed reference that never
touches entdisc:

* ``kernel``, small numpy eigen-solves, sorts and cumulative sums in a
  Python loop, run in the benchmark process (``point_analyses``,
  ``grid_sweep`` and the traced run);
* a fresh interpreter that imports numpy (``cli_requests`` and set-up),
  which follows cold-start times more closely than the kernel does.

Each request's time is multiplied by ``nominal / reference``, with the
reference interpolated to the middle of the request from the probes around it
(after a running median over neighbouring probes). The nominal values are the
references' times on an unloaded 2-core host, so scaled times read as times on
that host. A change to entdisc cannot move the reference, so it moves the
scaled times as it moves the raw ones; the raw figures are printed beside the
scaled ones.
"""

from __future__ import annotations

import sys
import time

import numpy as np

CLOCK = time.perf_counter_ns

NOMINAL_KERNEL_NS = 1.46e6
NOMINAL_STARTUP_NS = 150e6

# Cold start of the reference: interpreter plus ``import numpy``.
STARTUP_COMMAND = [sys.executable, "-c", "import numpy"]

_MATRIX = np.linspace(0.1, 1.6, 16).reshape(4, 4) + 0.3j * np.eye(4)


def kernel() -> float:
    """Fixed in-process reference work (about 1.5 ms)."""
    acc = 0.0
    for k in range(60):
        s = np.linalg.svd(_MATRIX * (1.0 + k * 1e-3), compute_uv=False) ** 2
        c = np.cumsum(np.sort(s)[::-1])
        acc += float(c[-1]) + bool(np.all(c <= 100.0)) + sum(i * 0.5 for i in range(20))
    return acc


class SpeedTrack:
    """Reference probes over time, and the scale factor they give at any time.

    ``probe`` runs the reference and returns its duration in ns; ``interval_ns``
    is the least time between probes; ``window`` is the running-median width.
    """

    def __init__(self, probe, nominal_ns: float, interval_ns: float, window: int):
        self._probe, self.nominal_ns = probe, nominal_ns
        self.interval_ns, self.window = interval_ns, window
        self.at_ns: list[int] = []
        self.probe_ns: list[int] = []
        self._last_end = None

    def probe(self) -> None:
        start = CLOCK()
        duration = self._probe()
        self._last_end = CLOCK()
        self.at_ns.append(start + duration // 2)
        self.probe_ns.append(duration)

    def maybe_probe(self) -> None:
        if self._last_end is None or CLOCK() - self._last_end >= self.interval_ns:
            self.probe()

    def scale(self, at_ns) -> np.ndarray:
        """nominal / reference at each time in ``at_ns``."""
        values = np.asarray(self.probe_ns, dtype=float)
        half = self.window // 2
        smooth = np.array([np.median(values[max(0, i - half):i + half + 1]) for i in range(values.size)])
        return self.nominal_ns / np.interp(np.asarray(at_ns, dtype=float), np.asarray(self.at_ns, dtype=float),
                                           smooth)


def in_process_track() -> SpeedTrack:
    def probe() -> int:
        start = CLOCK()
        kernel()
        return CLOCK() - start

    return SpeedTrack(probe, NOMINAL_KERNEL_NS, interval_ns=50e6, window=5)


def startup_track(run_child) -> SpeedTrack:
    """``run_child(launch)`` starts one command and returns its wall time in ns."""
    return SpeedTrack(lambda: run_child(STARTUP_COMMAND), NOMINAL_STARTUP_NS, interval_ns=400e6, window=3)
