"""Times scaled to a reference machine speed.

The benchmark shares its machine with other tenants, and the speed at
which the same Python code runs drifts by up to 2x within a minute.  Every
timed op is therefore bracketed by reference measurements of the same kind
taken just before and after it: a reference child process for ops that
are processes (CLI calls, set-up probes), and a reference loop in this
process for ops called in-process.  An op's time is scaled by
NOMINAL / (mean of the two reference times), so it reads as the time the
op would take on a machine where the reference takes NOMINAL.  The
reference code is the benchmark's own and never calls the program.
"""

from __future__ import annotations

import gc
import sys
import time

from child import run_child

# A fresh interpreter that imports some of the standard library and builds
# a dict of tuples: start-up, import and allocation work, like a CLI call.
REF_CHILD = [sys.executable, "-c",
             "import argparse, dataclasses, enum, functools, itertools, json\n"
             "d = {}\nfor i in range(60000):\n    d[(i, str(i))] = i\n"]
NOMINAL_CHILD_S = 0.130
NOMINAL_UNIT_S = 150e-6
REF_UNITS = 60  # units per in-process sample, about 9 ms
FLUSH_S = 0.04  # op time between in-process samples


def ref_unit() -> int:
    d = {}
    for i in range(300):
        t = (i, (i + 1, str(i)))
        d[t] = len(t[1][1])
    return sum(d.values())


def loop_sample() -> float:
    """Seconds per reference unit, with the collector paused so the
    program's heap does not change what the reference costs."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(REF_UNITS):
            ref_unit()
        return (time.perf_counter() - started) / REF_UNITS
    finally:
        if was_enabled:
            gc.enable()


class Scaler:
    """Collects raw op times and scales each batch by the references taken
    around it.  `record` queues an op; `flush` takes the next reference
    sample and scales the queued ops by the mean of it and the previous one."""

    def __init__(self, sample, nominal: float) -> None:
        self.sample, self.nominal = sample, nominal
        self.last = sample()
        self.pending: list = []
        self.pending_s = 0.0
        self.factors: list[float] = []

    def record(self, key, seconds: float) -> None:
        self.pending.append((key, seconds))
        self.pending_s += seconds

    def flush(self, sink) -> None:
        """Scale the queued ops and hand (key, scaled, raw) to `sink`."""
        if not self.pending:
            return
        now = self.sample()
        factor = self.nominal / ((self.last + now) / 2)
        self.last = now
        self.factors.append(factor)
        for key, seconds in self.pending:
            sink(key, seconds * factor, seconds)
        self.pending, self.pending_s = [], 0.0


def child_scaler(ctx) -> Scaler:
    return Scaler(lambda: run_child(REF_CHILD, ctx.env, ctx.root).wall_s, NOMINAL_CHILD_S)


def loop_scaler() -> Scaler:
    return Scaler(loop_sample, NOMINAL_UNIT_S)
