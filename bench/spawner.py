"""Start commands one at a time; report each one's exit code, wall time and peak RSS.

Reads one JSON request per line on standard input,
``{"argv": [...], "stdout": PATH, "stderr": PATH}``, runs the command with
standard input from /dev/null and its output in the two files, reaps it with
``os.wait4`` and answers with one JSON line ``{"code": ..., "ns": ...,
"maxrss_kb": ...}``. It exits when its standard input closes.

Linux carries the spawning process's peak resident set into the child's
``ru_maxrss`` across exec. This process imports nothing heavy, so what it
passes on stays below any Python child's own peak; the benchmark process,
which holds numpy and parsed outputs, would inflate every child's figure.
"""

import json
import os
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        argv = request["argv"]
        start = time.perf_counter_ns()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter_ns() - start
        reply = {"code": os.waitstatus_to_exitcode(status), "ns": elapsed, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
