"""Run one asymint command in this fresh interpreter and print one JSON line:
exit code, import end, op time, peak RSS, the artifact text and, when
traced, the span summary.

    python3 perfbench/child.py '<argv as a JSON list>' <trace 0|1>

The op is timed from the end of the import to the return of
`asymint.cli.main`, so nothing computed before the op can count for it.
`imported` is `time.perf_counter()` at the end of the import; on Linux that
clock (CLOCK_MONOTONIC) is shared by all processes, so the parent subtracts
its own reading from before the spawn to get the set-up time.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    argv = json.loads(sys.argv[1])
    trace = sys.argv[2] == "1"
    from asymint import cli

    imported = time.perf_counter()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = cli.main(argv)
        op_s = time.perf_counter() - start
    result = {
        "rc": rc,
        "imported": imported,
        "op_s": op_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifact": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }
    if tracer is not None:
        result["trace"] = tracer.summary(op_s)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
