"""The benchmark under bench/ reaches into the program by name: the traced
run patches the attributes listed in `bench/spans.py`, the arith workload
runs `bench/warm.certify`, and the warm ops read attributes of the values
they get back.  These names must keep resolving."""

import importlib
import sys
from collections.abc import Sequence
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("spans"), importlib.import_module("warm")
    finally:
        sys.path.remove(str(BENCH))


def test_patched_attributes_resolve(bench_modules):
    spans, _ = bench_modules
    missing = [
        (module, attr) for module, attr, _ in spans.PATCHES
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_certification_suite_certifies(bench_modules):
    _, warm = bench_modules
    from quotients import equiv, integers, rationals

    reports = warm.certify(equiv, integers, rationals, 50)
    assert reports
    assert all(r.verdict == "certified" and r.checked > 0 for r in reports)


def test_certification_suite_repeats(bench_modules):
    # The second run reads the pairs the first one kept.
    _, warm = bench_modules
    from quotients import equiv, integers, rationals

    runs = [[(r.verdict, r.checked) for r in warm.certify(equiv, integers, rationals, 500)]
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_warm_ops_match_references(bench_modules):
    _, warm = bench_modules
    from quotients import integers as I, messages as M, rationals as R, sexpr as S

    inputs = warm.inputs
    api = SimpleNamespace(parse_term=S.parse_term, msg=M.msg, left=M.left, right=M.right,
                          nonces=M.nonces, discrim=M.discrim, msg_eq=M.msg_eq,
                          normalize=M.normalize, print_term=S.print_term)
    cases = inputs.term_cases(1, 0.05)
    twins = [warm._free(c.twin, M) for c in cases]
    for case, twin in zip(cases, twins):
        out = warm.term_op(api, case.text, twin, twins[case.other])
        assert warm._term_ok(case, out, S.print_term)
    arith = inputs.arith_cases(1, 0.05)
    for case in arith:
        if case.tier == "light":
            out = warm.int_op(I, case.program, I.from_native(case.pivot), I.from_native(case.value))
        else:
            f = case.value
            out = warm.rat_op(R, case.program, R.qrat(f.numerator, f.denominator))
        assert warm._arith_ok(case, out)
    assert cases and {c.tier for c in arith} == {"light", "mid"}


def test_message_pairs_are_a_sized_sequence():
    # The cold-cli child counts the informative pairs of a check this way.
    from quotients import messages

    pairs = messages.msg_relation(5).related_pairs(200)
    assert isinstance(pairs, Sequence) and len(pairs) == 200
    assert all(messages.msg_eq(u, v) for u, v in pairs)
