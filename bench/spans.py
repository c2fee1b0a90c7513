"""In-memory spans around calls into the program's layers.

A traced run replaces selected module attributes of the program with
wrappers that record one span per call: (name, start_ns, end_ns, parent
index, op id).  Only functions that do not call themselves are patched, so
a span is one call and never one recursion step; the benchmark wraps the
recursive entry points it calls itself (`Tracer.wrap`).  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

# (module, attribute, span name).  Several modules hold their own reference
# to one function (`from .equiv import class_of`), so each is patched.
PATCHES = (
    ("quotients.cli", "parse_term", "sexpr.parse_term"),
    ("quotients.cli", "parse_sexpr", "sexpr.parse_sexpr"),
    ("quotients.cli", "print_term", "sexpr.print_term"),
    ("quotients.cli", "normalize", "messages.normalize"),
    ("quotients.cli", "msg_eq", "messages.msg_eq"),
    ("quotients.cli", "check_equivalence", "equiv.check_equivalence"),
    ("quotients.cli", "check_respects", "equiv.check_respects"),
    ("quotients.cli", "check_respects2", "equiv.check_respects2"),
    ("quotients.cli", "respects2_via_commutativity", "equiv.respects2_via_commutativity"),
    ("quotients.cli", "lift1", "equiv.lift1"),
    ("quotients.sexpr", "parse_term", "sexpr.parse_term"),
    ("quotients.sexpr", "parse_sexpr", "sexpr.parse_sexpr"),
    ("quotients.messages", "_enumerate", "messages.enumerate"),
    ("quotients.messages", "_closure", "messages.closure"),
    ("quotients.messages", "_sorted_pairs", "messages.related_pairs"),
    ("quotients.messages", "msg", "messages.msg"),
    ("quotients.messages", "msg_eq", "messages.msg_eq"),
    ("quotients.messages", "left", "messages.left"),
    ("quotients.messages", "right", "messages.right"),
    ("quotients.messages", "nonces", "messages.nonces"),
    ("quotients.messages", "discrim", "messages.discrim"),
    ("quotients.messages", "class_of", "equiv.class_of"),
    ("quotients.integers", "class_of", "equiv.class_of"),
    ("quotients.rationals", "class_of", "equiv.class_of"),
    ("quotients.equiv", "class_eq", "equiv.class_eq"),
    ("quotients.equiv", "check_equivalence", "equiv.check_equivalence"),
    ("quotients.equiv", "check_respects", "equiv.check_respects"),
    ("quotients.equiv", "check_respects2", "equiv.check_respects2"),
    ("quotients.equiv", "respects2_via_commutativity", "equiv.respects2_via_commutativity"),
    ("quotients.integers", "add", "integers.add"),
    ("quotients.integers", "mul", "integers.mul"),
    ("quotients.integers", "neg", "integers.neg"),
    ("quotients.integers", "le", "integers.le"),
    ("quotients.integers", "to_nat", "integers.to_nat"),
    ("quotients.rationals", "rat_add", "rationals.rat_add"),
    ("quotients.rationals", "rat_mul", "rationals.rat_mul"),
    ("quotients.rationals", "rat_neg", "rationals.rat_neg"),
    ("quotients.rationals", "rat_inv", "rationals.rat_inv"),
)

FIELDS = ("name", "start_ns", "end_ns", "parent", "op")
# A warm traced run records spans for one op in SAMPLE_EVERY, which keeps
# its memory in the tens of MB; a prime, so the sampled ops rotate through
# a pool whose size it does not divide.
SAMPLE_EVERY = 13


class Tracer:
    """Collects spans in memory while `on` is set."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.on = True

    def next_op(self, always: bool = False) -> bool:
        """Start the next op; record its spans if it is sampled."""
        self.op += 1
        self.on = always or self.op % SAMPLE_EVERY == 0
        return self.on

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)

        return traced

    def install(self) -> None:
        """Patch every attribute in PATCHES, importing the program's modules."""
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(getattr(module, attr), name))


def self_times(spans: list) -> list[tuple[str, int, int, int]]:
    """(name, op, duration_ns, self_ns) for each span."""
    covered = [0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[0], s[4], s[2] - s[1], s[2] - s[1] - c) for s, c in zip(spans, covered)]


# Per-layer metrics read off the spans: mean self time per call, in us ...
PER_CALL_US = {
    "messages.normalize_us": ("messages.normalize",),
    "messages.msg_eq_us": ("messages.msg_eq",),
    "messages.hash_us": ("messages.hash",),
    "messages.msg_us": ("messages.msg",),
    "messages.lifted_us": ("messages.left", "messages.right", "messages.nonces", "messages.discrim"),
    "sexpr.parse_term_us": ("sexpr.parse_term",),
    "sexpr.parse_sexpr_us": ("sexpr.parse_sexpr",),
    "sexpr.print_term_us": ("sexpr.print_term",),
    "equiv.class_of_us": ("equiv.class_of",),
    "equiv.class_eq_us": ("equiv.class_eq",),
    "integers.add_us": ("integers.add",),
    "integers.mul_us": ("integers.mul",),
    "integers.neg_us": ("integers.neg",),
    "integers.le_us": ("integers.le",),
    "rationals.rat_add_us": ("rationals.rat_add",),
    "rationals.rat_mul_us": ("rationals.rat_mul",),
    "rationals.rat_inv_us": ("rationals.rat_inv",),
}
# ... and mean self time per heavy op that reaches the layer, in s.
PER_HEAVY_OP_S = {
    "messages.enumerate_s": "messages.enumerate",
    "messages.closure_s": "messages.closure",
    "messages.related_pairs_s": "messages.related_pairs",
    "equiv.check_equivalence_s": "equiv.check_equivalence",
    "equiv.check_respects_s": "equiv.check_respects",
    "equiv.check_respects2_s": "equiv.check_respects2",
    "equiv.respects2_via_commutativity_s": "equiv.respects2_via_commutativity",
}


class Profile:
    """Calls, self time and total time per span name, and per (name, op)."""

    def __init__(self, spans: list) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.by_op: dict[tuple[str, int], int] = defaultdict(int)
        self.total_by_op: dict[tuple[str, int], int] = defaultdict(int)
        for name, op, dur, own in self_times(spans):
            self.calls[name] += 1
            self.self_ns[name] += own
            self.by_op[name, op] += own
            self.total_by_op[name, op] += dur

    def per_call_us(self, names) -> float:
        calls = sum(self.calls[n] for n in names)
        return sum(self.self_ns[n] for n in names) / calls / 1e3 if calls else 0.0

    def per_op_s(self, name: str, ops) -> float:
        values = [self.by_op[name, op] for op in ops if (name, op) in self.by_op]
        return sum(values) / len(values) / 1e9 if values else 0.0

    def layer_metrics(self, heavy_ops) -> dict:
        out = {metric: self.per_call_us(names) for metric, names in PER_CALL_US.items()}
        out.update({metric: self.per_op_s(name, heavy_ops) for metric, name in PER_HEAVY_OP_S.items()})
        return out


def write_spans(path, workload: str, seed: int, spans: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump({"workload": workload, "seed": seed, "fields": FIELDS, "spans": spans}, fh)
