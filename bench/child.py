"""Run one entdisc CLI command in a fresh interpreter with spans recorded.

Usage: python3 bench/child.py SPANS_FILE [ARG ...]

Times ``import numpy`` and then ``import entdisc.cli`` from a cold start,
traces the command ARG ... through ``entdisc.cli.main`` and writes the import
times and the spans to SPANS_FILE as JSON. Exits with the command's status.
With no ARG it only times the imports.
"""

import time

_t0 = time.perf_counter_ns()
import numpy  # noqa: E402,F401

_t1 = time.perf_counter_ns()
import entdisc.cli  # noqa: E402

_t2 = time.perf_counter_ns()

import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    record = {"import_numpy_ns": _t1 - _t0, "import_entdisc_ns": _t2 - _t1, "spans": []}
    code = 0
    if argv:
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            code = entdisc.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            record["spans"] = tracer.spans
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
