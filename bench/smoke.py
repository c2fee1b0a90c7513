"""Smoke test of the benchmark: every workload, untraced and traced, on tiny
inputs, checking only the shape of the output (no timing bound).

    python3 bench/smoke.py

Exits 0 when every run printed a well-formed, correct result; takes a few
seconds.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_run(workload: str, trace: int, wanted: list) -> tuple[list[str], dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"], {}
    lines = proc.stdout.strip().splitlines()
    try:
        descriptor, result = json.loads(lines[-2])["descriptor"], json.loads(lines[-1])
    except (ValueError, KeyError, IndexError) as exc:
        return [f"{where}: unreadable output ({exc!r}): {proc.stdout[-500:]}"], {}
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: not correct: {proc.stderr[-500:]}")
    attempted = result.get("attempted")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"{where}: attempted {attempted!r}")
    if descriptor.get("seed") != 7 or descriptor.get("workload") != workload:
        problems.append(f"{where}: descriptor {descriptor}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metrics {sorted(metrics)}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: metric {m['name']} = {got}")
        elif trace == 0 and value <= 0:
            problems.append(f"{where}: end-to-end metric {m['name']} is {value}")
    return problems, metrics


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems, reached = [], set()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            found, metrics = check_run(workload, trace, wanted)
            problems += found
            if trace:
                reached |= {name for name, m in metrics.items() if m.get("value")}
            print(f"{'FAIL' if found else 'ok  '} {workload} --trace {trace}")
    unreached = sorted({m["name"] for m in spec["per_layer"]} - reached)
    if unreached:
        problems.append(f"per-layer metrics no workload reaches: {unreached}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
