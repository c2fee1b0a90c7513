"""Benchmark of the quotients toolkit, run from the root of a checkout.

    python3 bench/run.py --workload {cold-cli,msg-terms,arith} --seed N --seconds S --trace {0,1}

Builds the workload's inputs from the seed, times set-up in fresh
interpreters, runs the workload for about S seconds, checks every output,
and prints a descriptor line and then, as the last line, one JSON result:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are its
per-layer metrics, read off spans that are also written to bench/out/.
--small shrinks every input so that bench/smoke.py can run all paths fast.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import cold_cli
import warm
from child import run_child
from report import FULL, SMALL, TIERS, Context, Result, median, tail
from spans import write_spans
from speed import child_scaler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = {"cold-cli": cold_cli.run, "msg-terms": warm.run_msg_terms, "arith": warm.run_arith}


def setup_seconds(ctx: Context, workload: str, res: Result) -> tuple[float, float]:
    """Median time, scaled and measured, of fresh interpreters that import
    what the workload calls and run its first op (probe.py).  One unscaled,
    untimed probe first, so byte-compiling a fresh checkout is not counted."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload]
    scaled, raw = [], []

    def keep(_, scaled_s, raw_s):
        scaled.append(scaled_s)
        raw.append(raw_s)

    scaler = None
    for _ in range(ctx.scale.probes + 1):
        res.attempted += 1
        child = run_child(cmd, ctx.env, ctx.root)
        if child.code != 0:
            res.fail(f"set-up probe exited {child.code}: {child.stderr[-300:]}")
        elif scaler is None:
            scaler = child_scaler(ctx)
        else:
            scaler.record(None, child.wall_s)
            scaler.flush(keep)
    return median(scaled), median(raw)


def end_to_end(res: Result, setup_s: float) -> dict:
    values = {"setup_s": setup_s, "peak_rss_mb": res.peak_rss_mb, "ops_per_s": res.ops_per_s()}
    for tier in TIERS:
        values[f"op_ms.{tier}"] = median(res.tiers[tier]) * 1e3
    return values


def scale_layers(layers: dict, units: dict, factor: float) -> dict:
    """Per-layer times come from one run's spans; scale them by the run's
    median speed factor so runs at different machine speeds compare."""
    return {name: value * factor if units[name] in ("s", "us", "ns") else value
            for name, value in layers.items()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "quotients" / "cli.py").is_file():
        print(f"bench: no program source at {SRC / 'quotients'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    ctx = Context(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                  scale=SMALL if args.small else FULL, root=ROOT, env=env)

    res = Result()
    setup_s, setup_raw_s = setup_seconds(ctx, args.workload, res)
    WORKLOADS[args.workload](ctx, res)

    wanted = spec["per_layer"] if ctx.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if ctx.trace:
        measured = dict(res.layers)
        unknown = set(measured) - set(units)
        if unknown:
            raise SystemExit(f"bench: measured metrics missing from BENCHMARK.json: {sorted(unknown)}")
        measured = scale_layers(measured, units, median(res.factors))
        measured["traced.ops_per_s"] = res.ops_per_s()
        write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json.gz",
                    args.workload, args.seed, res.spans)
    else:
        measured = end_to_end(res, setup_s)
    # A layer this workload never reaches reads 0.
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    descriptor = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "small": args.small, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "machine": platform.machine(), "cpu": cpu_model(),
        "nproc": os.cpu_count(), "setup_probes": ctx.scale.probes,
        "fail_ratio": res.failed / res.attempted if res.attempted else 0.0,
        "speed_factor": median(res.factors),
        "measured_ms": {"setup": setup_raw_s * 1e3,
                        **{tier: median(res.raw[tier]) * 1e3 for tier in TIERS}},
        "tails": {tier: tail(res.tiers[tier]) for tier in TIERS},
        **res.descriptor,
    }
    for error in res.errors:
        print(f"bench: failed: {error}", file=sys.stderr)
    print(json.dumps({"descriptor": descriptor}))
    print(json.dumps({"correct": res.failed == 0, "attempted": max(res.attempted, 1),
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
