"""cold-cli: every op is one CLI invocation in a fresh interpreter.

One client in a closed loop runs whole cycles of a fixed mix: the two
heavy `check` suites on the bound-6 message universe, the four `msg-fn`
functions (each certifies its map at the default bound on every call), and
one each of `msg-nf`, `msg-eq`, `int-eval` and `rat-eval`, with seeded
arguments.  Untraced, a child is `python -m quotients.cli ARGV`; traced, it
is `cli_child.py ARGV`, which records spans in the child.
"""

from __future__ import annotations

import json
import random
import re
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

import inputs
from child import run_child
from report import Context, Result, histogram, median, repeat_cycles
from spans import Profile
from speed import child_scaler

HERE = Path(__file__).resolve().parent
HEAVY = (["check", "msg-congruence", "--truncated-discrim"], ["check", "msg-equivalence"])
CERTIFIED_FNS = ("freenonces", "freeleft", "freeright", "freediscrim")
STATUS_EXIT = {"ok": 0, "refuted": 1, "error": 2}
REPORT_KEYS = {"status", "payload", "budget_used", "elapsed_ms"}


@dataclass(frozen=True)
class Invocation:
    tier: str
    argv: list
    exit: int | None  # expected exit code; heavy calls are checked by _check_heavy
    payload: dict | None  # expected payload
    nodes: int  # term nodes the call parses

    @property
    def kind(self) -> str:
        return "-".join(self.argv[:2]) if self.argv[0] == "check" else self.argv[0]


def cycles(ctx: Context):
    """The seeded stream of cycles: heavy, four light, heavy, four light."""
    rng = random.Random(f"cold-cli/{ctx.seed}")
    bound, budget = ctx.scale.heavy_bound, ctx.scale.heavy_budget
    heavy = [Invocation("heavy", argv + ["--bound", str(bound), "--budget", str(budget), "--json"],
                        None, None, 0) for argv in HEAVY]
    while True:
        light = [Invocation(tier, argv + ["--json"], code, payload, nodes)
                 for tier, argv, code, payload, nodes in inputs.cli_cycle(rng)]
        yield [heavy[0], *light[0:2], light[4], light[6], heavy[1], *light[2:4], light[5], light[7]]


def _check_heavy(inv: Invocation, doc: dict, code: int, budget: int) -> str | None:
    results = doc["payload"]["results"]
    if inv.argv[1] == "msg-equivalence":
        if code != 0 or len(results) != 1 or results[0]["verdict"] != "certified":
            return f"msg-equivalence not certified: {results}"
        return None
    names = [r["name"] for r in results]
    if code != 1 or names != [*CERTIFIED_FNS, "freediscrim_truncated"]:
        return f"msg-congruence: exit {code}, results {names}"
    for r in results[:4]:
        if r["verdict"] != "certified" or r["checked"] != budget:
            return f"{r['name']}: {r['verdict']} after {r['checked']} of {budget}"
    last = results[4]
    if last["verdict"] != "refuted" or not last["counterexample"]:
        return f"freediscrim_truncated not refuted: {last}"
    # Re-check the counterexample rather than pin it: related, images differ.
    x, y = (inputs.parse_text(t) for t in last["counterexample"])
    if inputs.ref_normalize(x) != inputs.ref_normalize(y):
        return f"counterexample {last['counterexample']} is not a related pair"
    if inputs.ref_discrim(x, truncated=True) == inputs.ref_discrim(y, truncated=True):
        return f"counterexample {last['counterexample']} has equal images"
    return None


def check_output(inv: Invocation, code: int, stdout: str, budget: int) -> str | None:
    """None if the invocation's report is right, else what is wrong."""
    try:
        doc = json.loads(stdout)
        if set(doc) != REPORT_KEYS:
            return f"report keys {sorted(doc)}"
        if STATUS_EXIT.get(doc["status"]) != code:
            return f"status {doc['status']!r} with exit code {code}"
        if inv.tier == "heavy":
            return _check_heavy(inv, doc, code, budget)
        if code != inv.exit or doc["payload"] != inv.payload:
            return f"exit {code}, payload {doc['payload']}; expected exit {inv.exit}, {inv.payload}"
        return None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report ({exc!r}): {stdout[:200]!r}"


def run(ctx: Context, res: Result) -> None:
    budget = ctx.scale.heavy_budget
    base = [sys.executable, str(HERE / "cli_child.py")] if ctx.trace else [sys.executable, "-m", "quotients.cli"]
    heavy_rss, done = [], []
    scaler = child_scaler(ctx)
    traced = []  # (invocation, child report) per traced invocation
    stream = cycles(ctx)

    def cycle():
        for inv in next(stream):
            res.attempted += 1
            child = run_child(base + inv.argv, ctx.env, ctx.root)
            code, stdout, report = child.code, child.stdout, None
            if ctx.trace:
                try:
                    report = json.loads(child.stdout)
                    code, stdout = report["exit"], report["stdout"]
                except (ValueError, KeyError):
                    pass
            problem = check_output(inv, code, stdout, budget)
            if problem:
                res.fail(f"{' '.join(inv.argv[:2])}: {problem} {child.stderr[-300:]}")
                continue
            if report is not None:
                traced.append((inv, report))
            scaler.record(inv.tier, child.wall_s)
            scaler.flush(res.add)
            done.append(inv)
            if inv.tier == "heavy":
                heavy_rss.append(child.maxrss_kb / 1024)

    count = repeat_cycles(ctx.seconds, cycle)
    res.peak_rss_mb = median(heavy_rss)
    res.factors += scaler.factors

    universe = oracle_counts(ctx, res)
    res.descriptor = {
        "heavy_argv": [inv.argv for inv in done if inv.tier == "heavy"][:2],
        "cycles": count,
        "ops_per_tier": {t: len(v) for t, v in res.tiers.items()},
        "term_nodes_histogram": histogram([inv.nodes for inv in done if inv.nodes], (8, 16, 32, 64)),
        "operand_digits_histogram": histogram(
            [len(m) for inv in done if inv.argv[0] in ("int-eval", "rat-eval")
             for m in re.findall(r"\d+", inv.argv[1])], (3, 6, 9, 12)),
        "universe": universe,
    }
    if ctx.trace:
        res.spans = merge([report["spans"] for _, report in traced])
        prof = Profile(res.spans)
        res.layers = layers(traced, prof, universe, budget)
        res.descriptor["heavy_self_shares"] = self_shares(traced, prof)


def merge(children: list) -> list:
    """One span list over all traced children: the op id is the child's
    position and parent indices are offset into the merged list."""
    merged = []
    for op, spans in enumerate(children):
        offset = len(merged)
        merged += [(n, s, e, p + offset if p >= 0 else -1, op) for n, s, e, p, _ in spans]
    return merged


def layers(traced: list, prof: Profile, universe: dict, budget: int) -> dict:
    heavy = [op for op, (inv, _) in enumerate(traced) if inv.tier == "heavy"]
    out = prof.layer_metrics(heavy)
    out["cli.import_s"] = median([report["import_s"] for _, report in traced])
    kinds: dict = {}
    for op, (inv, _) in enumerate(traced):
        kinds.setdefault(inv.kind, []).append(prof.total_by_op["cli.main", op] / 1e9)
    for kind, values in kinds.items():
        out[f"cli.main_s.{kind}"] = median(values)
    out["messages.related_pairs_share"] = median(
        [prof.by_op["messages.related_pairs", op] / prof.total_by_op["cli.main", op] for op in heavy])
    nodes = sum(inv.nodes for inv, _ in traced)
    parse_ns = sum(prof.total_by_op["sexpr.parse_term", op] for op, (inv, _) in enumerate(traced) if inv.nodes)
    out["sexpr.parse_ns_per_node"] = parse_ns / nodes if nodes else 0.0
    out["messages.universe_terms"] = universe["terms"]
    out["messages.classes"] = universe["classes"]
    out["messages.class_pairs"] = universe["class_pairs"]
    out["messages.pairs_used_ratio"] = budget / universe["class_pairs"] if universe["class_pairs"] else 0.0
    pairs = [report["pairs"] for _, report in traced if "pairs" in report]
    out["equiv.informative_ratio"] = pairs[0][0] / pairs[0][1] if pairs else 0.0
    out["equiv.checked"] = statistics.fmean(
        [sum(r["checked"] for r in json.loads(traced[op][1]["stdout"])["payload"]["results"]) for op in heavy]
        or [0])
    return out


def self_shares(traced: list, prof: Profile) -> dict:
    """The five largest shares of heavy calls' `cli.main` time, by self time
    per span name: where a check spends its time."""
    heavy = {op for op, (inv, _) in enumerate(traced) if inv.tier == "heavy"}
    total = sum(prof.total_by_op["cli.main", op] for op in heavy)
    own: dict = {}
    for (name, op), ns in prof.by_op.items():
        if op in heavy:
            own[name] = own.get(name, 0) + ns
    ranked = sorted(own.items(), key=lambda item: -item[1])[:5]
    return {name: ns / total for name, ns in ranked} if total else {}


def oracle_counts(ctx: Context, res: Result) -> dict:
    """Universe, classes and Σ n² pairs of the heavy checks' universe, from
    `oracle-msgrel` (not timed)."""
    bound = ctx.scale.heavy_bound
    res.attempted += 1
    child = run_child([sys.executable, "-m", "quotients.cli", "oracle-msgrel", "--bound", str(bound),
                       "--json"], ctx.env, ctx.root)
    try:
        payload = json.loads(child.stdout)["payload"]
        return {"bound": bound, "terms": payload["universe"], "classes": payload["classes"],
                "class_pairs": payload["pairs"]}
    except (ValueError, KeyError):
        res.fail(f"oracle-msgrel: {child.stdout[:200]!r} {child.stderr[-300:]}")
        return {"bound": bound, "terms": 0, "classes": 0, "class_pairs": 0}
