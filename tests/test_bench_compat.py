"""The benchmark under bench/ reaches into the program by name: the traced
run patches the attributes listed in `bench/spans.py`, and the arith
workload runs `bench/warm.certify`.  These names must keep resolving."""

import importlib
import sys
from pathlib import Path

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
