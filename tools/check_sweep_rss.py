"""Check that a sweep's peak memory does not grow with the lattice.

Runs ``entdisc sweep --out`` for each mode at grid 101 and at grid 1001, each
in its own child process, and reads the child's peak RSS (``ru_maxrss``) from
``os.wait4``. Exits 1 if any mode's grid-1001 peak is more than RATIO times
its grid-101 peak. After each child it also checks what the child left: the
output directory must hold only the CSV (no temporary file left beside it),
and the CSV must have grid_n^2 + 1 lines (no short write). Each grid-1001 CSV
must also match its SHA-256 in DIGESTS, so the 245-block output keeps every
byte; so must two more feasible3 runs at grid 1001 (ORDER_DIGESTS), in member
orders the equal-prior (0, 1, 2) run does not reach. Standard library only, so this process stays small: a child's peak RSS
also counts the memory it shared with this process before it started the
interpreter.

    python3 tools/check_sweep_rss.py

The package is taken from ``src/`` beside this script.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
import time

MODES = ("assist", "preserve", "feasible3")
GRIDS = (101, 1001)
RATIO = 1.5
# SHA-256 of each mode's grid-1001 CSV at equal priors, as emitted since the
# closed-form lambda_1 for assist; a change in rendering must not move a byte.
DIGESTS = {
    "assist": "e6c9ff7b2675926f71954b58d2259d2537d9a76eb98ea04c78cbddb69d876656",
    "preserve": "468bda82b50eeeaddef0675448fef0a5a66a2b138ba9a62a5dd33d76d269be5c",
    "feasible3": "7a50d1eb36ea559b4b8a460a291a9d0b2bea3aa23974b826194490dbb752fd61",
}
# SHA-256 of grid-1001 feasible3 CSVs in other member orders: a reordered subset
# under unequal priors, and (2, 0, 1), whose members 0 and 1 sit on pointers 1
# and 2, so every pointer-state eigenvalue is doubled.
ORDER_DIGESTS = {
    ("--which", "3,0,2", "--probs", "0.5,0.3,0.2"): "92122f3ca50d53a10e1824b5816c7265a3b7553221d80dda85f85154db9181d8",
    ("--which", "2,0,1"): "f929f88093e3aa27071cbcd07e9d65e56c968ee75e40b1c0ad492a4cd86bc4b6",
}
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_sweep(mode: str, grid_n: int, out: str, flags: tuple = (), expected: str | None = None) -> tuple[float, float]:
    """Wall seconds and peak RSS in MB of one ``sweep --out`` process; its CSV must have SHA-256 ``expected`` if given."""
    argv = [sys.executable, "-m", "entdisc.cli", "sweep", "--mode", mode, "--grid-n", str(grid_n), *flags, "--out", out]
    mode = " ".join([mode, *flags])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env)
    _, status, usage = os.wait4(child.pid, 0)
    seconds = time.perf_counter() - start
    if status != 0:
        sys.exit(f"sweep --mode {mode} --grid-n {grid_n} failed with wait status {status}")
    left = sorted(os.listdir(os.path.dirname(out)))
    if left != [os.path.basename(out)]:
        sys.exit(f"sweep --mode {mode} --grid-n {grid_n} left {left} in its output directory")
    lines, digest = 0, hashlib.sha256()
    with open(out, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            lines += block.count(b"\n")
            digest.update(block)
    if lines != grid_n**2 + 1:
        sys.exit(f"sweep --mode {mode} --grid-n {grid_n} wrote {lines} lines, expected {grid_n**2 + 1}")
    if expected is not None and digest.hexdigest() != expected:
        sys.exit(f"sweep --mode {mode} --grid-n {grid_n} wrote SHA-256 {digest.hexdigest()}, expected {expected}")
    return seconds, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        for mode in MODES:
            _, small = run_sweep(mode, GRIDS[0], out)
            seconds, large = run_sweep(mode, GRIDS[1], out, expected=DIGESTS[mode])
            ok = large <= RATIO * small
            failed |= not ok
            print(f"{mode:9} grid {GRIDS[0]} {small:6.1f} MB  grid {GRIDS[1]} {large:6.1f} MB "
                  f"({seconds:.1f} s)  {'ok' if ok else f'FAIL: more than {RATIO}x'}")
        for flags, expected in ORDER_DIGESTS.items():
            seconds, large = run_sweep("feasible3", GRIDS[1], out, flags, expected)
            print(f"feasible3 {' '.join(flags)}: grid {GRIDS[1]} {large:6.1f} MB ({seconds:.1f} s)  bytes ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
