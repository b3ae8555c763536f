"""Run one finslerab CLI call in a fresh interpreter and report its timings.

Usage: ``python3 perfbench/job.py <trace 0|1> <finslerab arguments...>``
with ``src`` on ``PYTHONPATH``.  The last line of standard output is a JSON
object: ``ready`` (the system-wide monotonic clock once ``finslerab.cli`` is
imported, so the parent can subtract its spawn time), ``call_s`` (the time
of ``finslerab.cli.main(argv)``), ``rc``, ``rss_mb`` (peak resident memory of
this interpreter) and, when traced, ``trace``.  The exit status is the
CLI's.  With no arguments after the trace flag only the import is done.
"""

import time

from finslerab import cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    trace, argv = sys.argv[1] == "1", sys.argv[2:]
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer.install()
    rc, call_s = 0, 0.0
    if argv:
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        call_s = time.perf_counter() - t0
    report = {
        "ready": READY,
        "call_s": call_s,
        "rc": rc,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        report["trace"] = tracer.report()
    sys.stdout.write(json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
