"""Run one catwalk CLI command in a fresh interpreter, timed around ``cli.main``.

Usage: python3 bench/child.py SPAWNED TRACE CPU ARG...

SPAWNED is the harness's ``time.monotonic()`` just before it started this
process; the clock is shared by all processes, so the time until
``cli.main`` is called (interpreter start, ``catwalk`` import) is this
process's set-up time.  TRACE is 1 to wrap catwalk's layers in spans first.
The process keeps to CPU number CPU, so that all of it runs at one speed.
The command's output goes to stdout untouched; the report is the last line
of stderr, after REPORT_TAG.

Before it imports catwalk, the process times a fixed pure-Python kernel
(:func:`calibrate`); the harness uses that time to take the host's drifting
speed out of the figures, and subtracts the kernel's cost from the set-up
and wall times.
"""

import os
import sys
import time

REPORT_TAG = "catwalk-bench-report "


class _Key:
    """A key whose hashing and equality run as Python code, like catwalk's states."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __hash__(self):
        return hash((self.a, self.b))

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b


def calibrate() -> float:
    """Best of three times of a fixed loop of Python-level calls and dict updates.

    Most of catwalk's time goes to Python-level calls (dataclass and Enum
    hashing, ``Fraction`` operators); of the kernels tried, this one
    followed the host's drift in catwalk's DP, series and sampler code best.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        for i in range(8000):
            key = _Key(i & 63, i & 7)
            table[key] = table.get(key, 0) + i
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    spawned = float(sys.argv[1])
    os.sched_setaffinity(0, {int(sys.argv[3])})
    begin = time.monotonic()
    kernel_s = calibrate()
    calibration_s = time.monotonic() - begin
    tracer = None
    if sys.argv[2] == "1":
        import tracer as tracer_mod

        tracer = tracer_mod.install()
    from catwalk import cli

    entry = tracer.wrap("cli.main", cli.main) if tracer else cli.main
    start = time.monotonic()
    code = entry(sys.argv[4:])
    command_s = time.monotonic() - start

    import json
    import resource

    report = {
        "setup_s": start - spawned - calibration_s,
        "command_s": command_s,
        "kernel_s": kernel_s,
        "calibration_s": calibration_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        report.update(tracer.summary())
    sys.stdout.flush()
    sys.stderr.write(REPORT_TAG + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
