"""What a workload gets (Context) and hands back (Result), and the small
statistics both sides use."""

from __future__ import annotations

import statistics
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

TIERS = ("heavy", "mid", "light")


@dataclass(frozen=True)
class Scale:
    """Input sizes.  FULL is the benchmark; SMALL only checks that every
    path runs and the output has the right shape."""

    pool: float  # share of each msg-terms / arith pool tier
    heavy_bound: int  # cold-cli `check` universe bound
    heavy_budget: int  # cold-cli `check` budget
    certify_budget: int  # arith certification suite budget
    passes: int  # arith pool passes per certification run
    probes: int  # set-up probes per run


FULL = Scale(pool=1.0, heavy_bound=6, heavy_budget=2000, certify_budget=20000, passes=12, probes=9)
SMALL = Scale(pool=0.05, heavy_bound=5, heavy_budget=200, certify_budget=500, passes=1, probes=1)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    scale: Scale
    root: Path  # the checkout: children run here
    env: dict  # environment for children: the program's src on PYTHONPATH


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    # Op times in s, scaled and as measured.  Arrays of 4-byte floats keep
    # the benchmark's own memory small next to the program's peak RSS.
    tiers: dict = field(default_factory=lambda: {t: array("f") for t in TIERS})
    raw: dict = field(default_factory=lambda: {t: array("f") for t in TIERS})
    rate_tiers: tuple = TIERS  # tiers counted in ops_per_s
    peak_rss_mb: float = 0.0
    factors: list = field(default_factory=list)  # speed factors of the scaled batches
    layers: dict = field(default_factory=dict)  # per-layer metric name -> value
    descriptor: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def add(self, tier: str, scaled: float, raw: float) -> None:
        self.tiers[tier].append(scaled)
        self.raw[tier].append(raw)

    def ops_per_s(self) -> float:
        """Ops per second of (scaled) op time, over the rate tiers."""
        ops = sum(len(self.tiers[t]) for t in self.rate_tiers)
        busy = sum(sum(self.tiers[t]) for t in self.rate_tiers)
        return ops / busy if busy else 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def repeat_cycles(seconds: float, cycle) -> int:
    """Call `cycle()` until one more call would likely pass `seconds`; at
    least once.  Whole cycles keep the op mix of every run the same."""
    started, times = time.perf_counter(), []
    while True:
        cycle_started = time.perf_counter()
        cycle()
        times.append(time.perf_counter() - cycle_started)
        if time.perf_counter() - started + statistics.fmean(times) > seconds:
            return len(times)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """The q-quantile of values by the nearest-rank rule."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def histogram(values, edges) -> dict[str, int]:
    """Counts per bucket `<=edge`, plus `>last` for the rest."""
    out = {f"<={e}": 0 for e in edges}
    out[f">{edges[-1]}"] = 0
    for v in values:
        for e in edges:
            if v <= e:
                out[f"<={e}"] += 1
                break
        else:
            out[f">{edges[-1]}"] += 1
    return out


def tail(values) -> dict:
    """The highest of p90/p99 with at least ten samples beyond it."""
    n = len(values)
    for q in (0.99, 0.9):
        if n * (1 - q) >= 10:
            return {"q": q, "ms": quantile(values, q) * 1e3, "n": n}
    return {"q": None, "ms": None, "n": n}
