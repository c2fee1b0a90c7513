"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every comparison below is exact; there are no tolerances to tune.
"""

import random
from fractions import Fraction

import pytest

from msg_oracles import normalize_outermost
from quotients.equiv import check_respects
from quotients.integers import add, from_native, le, mul, neg, qint, to_nat, to_native
from quotients.messages import (
    FREEDISCRIM_MAP,
    FREEDISCRIM_TRUNCATED_MAP,
    closure_classes,
    closure_oracle,
    crypt,
    decrypt,
    discrim,
    enumerate_terms,
    freediscrim,
    freediscrim_truncated,
    left,
    mpair,
    msg,
    msg_eq,
    nonce,
    nonces,
    normalize,
    right,
)
from quotients.rationals import (
    RatPair,
    qrat,
    rat_add,
    rat_inv,
    rat_mul,
    rat_neg,
    rat_one,
    rat_zero,
    ratrel_holds,
)

ORACLE_BOUND = 7


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


@pytest.fixture(scope="session")
def universe7():
    return enumerate_terms(ORACLE_BOUND)


@pytest.fixture(scope="session")
def labels7(universe7):
    return closure_classes(ORACLE_BOUND)


@pytest.fixture(scope="session")
def nf7(universe7):
    return {t: normalize(t) for t in universe7}


@pytest.fixture(scope="session")
def msgs7(nf7):
    # One Msg per equivalence class of the bound-7 universe.
    return [msg(t) for t in sorted(set(nf7.values()), key=repr)]


@pytest.fixture(scope="session")
def msgs4():
    return [msg(t) for t in sorted({normalize(t) for t in enumerate_terms(4)}, key=repr)]


def test_c1_integer_oracle_equivalence():
    span = range(-100, 101)
    lifted = {i: from_native(i) for i in span}
    bad = 0
    for i in span:
        a = lifted[i]
        if to_native(neg(a)) != -i or to_nat(a) != max(i, 0):
            bad += 1
        for j in span:
            b = lifted[j]
            if to_native(add(a, b)) != i + j:
                bad += 1
            if to_native(mul(a, b)) != i * j:
                bad += 1
            if le(a, b) != (i <= j):
                bad += 1
    pairs = len(span) * len(span)
    _report("C1", bad == 0,
            f"add/mul/le on {pairs} pairs and neg/nat on {len(span)} values match native ints")


def test_c2_representative_independence():
    others = [qint(0, 0), qint(2, 0), qint(0, 3)]
    bad = 0
    for x in range(31):
        for y in range(31):
            base = qint(x, y)
            for k in range(1, 11):
                shifted = qint(x + k, y + k)
                if not (base == shifted and neg(base) == neg(shifted)
                        and to_nat(base) == to_nat(shifted)):
                    bad += 1
                for w in others:
                    if add(base, w) != add(shifted, w) or add(w, base) != add(w, shifted):
                        bad += 1
                    if mul(base, w) != mul(shifted, w):
                        bad += 1
                    if le(base, w) != le(shifted, w) or le(w, base) != le(w, shifted):
                        bad += 1
    _report("C2", bad == 0,
            "neg/add/mul/le/nat invariant under shifts (x,y)->(x+k,y+k), x,y<=30, k<=10")


def test_c3_ring_laws():
    grid = [from_native(i) for i in range(-10, 11)]
    bad = 0
    for z1 in grid:
        if neg(neg(z1)) != z1:
            bad += 1
        for z2 in grid:
            if neg(add(z1, z2)) != add(neg(z1), neg(z2)):
                bad += 1
            if mul(neg(z1), z2) != neg(mul(z1, z2)):
                bad += 1
            if mul(z1, z2) != mul(z2, z1):
                bad += 1
            for z3 in grid:
                if mul(mul(z1, z2), z3) != mul(z1, mul(z2, z3)):
                    bad += 1
                if mul(add(z1, z2), z3) != add(mul(z1, z3), mul(z2, z3)):
                    bad += 1
    _report("C3", bad == 0, "six ring laws hold on the 21^3 grid of QInt triples")


def test_c4_decision_matches_inductive_closure(universe7, labels7, nf7):
    # Both sides are equivalence relations on the universe, so they agree on
    # every pair iff they induce the same partition.
    by_label, by_nf = {}, {}
    for t in universe7:
        by_label.setdefault(labels7[t], []).append(t)
        by_nf.setdefault(nf7[t], []).append(t)
    partitions_equal = (
        {frozenset(g) for g in by_label.values()} == {frozenset(g) for g in by_nf.values()}
    )

    # Direct per-pair spot checks on top of the partition argument.
    rng = random.Random(20260810)
    sample_ok = all(
        (labels7[u] == labels7[v]) == msg_eq(u, v)
        for u, v in (
            (rng.choice(universe7), rng.choice(universe7)) for _ in range(5000)
        )
    )

    # The explicit pair-set form of the oracle, exhaustively at bound 4.
    small = enumerate_terms(4)
    oracle4 = closure_oracle(4)
    exhaustive_ok = all(
        ((u, v) in oracle4) == msg_eq(u, v) for u in small for v in small
    )

    ok = partitions_equal and sample_ok and exhaustive_ok
    _report("C4", ok,
            f"msg_eq == closure oracle on all pairs of {len(universe7)} size<=7 terms "
            f"({len(by_nf)} classes); exhaustive pair-set check at bound 4")


def test_c5_confluence_evidence(universe7, nf7):
    bad = 0
    for t in universe7:
        nf = nf7[t]
        if normalize_outermost(t) != nf or normalize(nf) != nf:
            bad += 1
    _report("C5", bad == 0,
            f"innermost == outermost and normalize idempotent on all {len(universe7)} terms")


def test_c6_theorem_suite(msgs7, msgs4):
    failures = []

    for x in msgs7:
        for k in (0, 1):
            if crypt(k, decrypt(k, x)) != x:
                failures.append("CD_eq")
            if decrypt(k, crypt(k, x)) != x:
                failures.append("DC_eq")

    # Injectivity via uniqueness maps (equal results force equal arguments).
    if len({nonce(n).rep for n in range(50)}) != 50:
        failures.append("nonce injectivity")
    seen = {}
    for x in msgs4:
        for y in msgs4:
            key = mpair(x, y).rep
            if seen.setdefault(key, (x, y)) != (x, y):
                failures.append("mpair injectivity")
    for k in (0, 1):
        for build in (crypt, decrypt):
            seen = {}
            for x in msgs7:
                key = build(k, x).rep
                if seen.setdefault(key, x) != x:
                    failures.append(f"{build.__name__} injectivity (key {k})")

    for n in range(3):
        for u in msgs4[:40]:
            for v in msgs4[:40]:
                if nonce(n) == mpair(u, v):
                    failures.append("Nonce != MPair")
    for k in (0, 1):
        for m_ in range(3):
            for n_ in range(3):
                if crypt(k, nonce(m_)) == nonce(n_):
                    failures.append("Crypt K (Nonce M) != Nonce N")

    for n in range(3):
        if nonces(nonce(n)) != {n} or left(nonce(n)) != nonce(n) \
                or right(nonce(n)) != nonce(n) or discrim(nonce(n)) != 0:
            failures.append("nonce-case equations")
    for x in msgs4:
        for y in msgs4[:40]:
            p = mpair(x, y)
            if nonces(p) != nonces(x) | nonces(y) or left(p) != x \
                    or right(p) != y or discrim(p) != 1:
                failures.append("mpair-case equations")
    for x in msgs7:
        for k in (0, 1):
            c, d = crypt(k, x), decrypt(k, x)
            if nonces(c) != nonces(x) or nonces(d) != nonces(x):
                failures.append("nonces crypt/decrypt equations")
            if left(c) != left(x) or left(d) != left(x):
                failures.append("left crypt/decrypt equations")
            if right(c) != right(x) or right(d) != right(x):
                failures.append("right crypt/decrypt equations")
            if discrim(c) != discrim(x) + 2 or discrim(d) != discrim(x) - 2:
                failures.append("discrim crypt/decrypt equations")

    _report("C6", not failures,
            "CD_eq, DC_eq, injectivity, discrimination, and 16 recursion equations"
            + (f"; failed: {sorted(set(failures))}" if failures else ""))


def test_c7_congruence_checker_soundness():
    refuted = check_respects(FREEDISCRIM_TRUNCATED_MAP, 500)
    certified = check_respects(FREEDISCRIM_MAP, 500)
    ok = refuted.verdict.value == "refuted" and refuted.counterexample is not None
    if ok:
        u, v = refuted.counterexample
        ok = msg_eq(u, v) and freediscrim_truncated(u) != freediscrim_truncated(v)
        ok = ok and freediscrim(u) == freediscrim(v)
    ok = ok and certified.verdict.value == "certified" and certified.checked == 500
    _report("C7", ok,
            f"truncated discriminator refuted at check {refuted.checked}/500 with a "
            "re-validating counterexample; signed variant certified on the same budget")


def test_c8_rational_field_laws():
    values = [RatPair(n, d) for n in range(-12, 13) for d in range(-12, 13) if d != 0]
    rats = {p: qrat(*p) for p in values}
    bad = 0

    # Unary laws and oracle agreement, exhaustively over the grid.
    for p in values:
        a = rats[p]
        f = Fraction(p.num, p.den)
        if rat_add(a, rat_zero()) != a or rat_mul(a, rat_one()) != a:
            bad += 1
        if rat_add(a, rat_neg(a)) != rat_zero():
            bad += 1
        fn = -f
        if not ratrel_holds(rat_neg(a).pair, (fn.numerator, fn.denominator)):
            bad += 1
        if p.num != 0:
            fi = 1 / f
            if not ratrel_holds(rat_inv(a).pair, (fi.numerator, fi.denominator)):
                bad += 1

    # Binary laws and oracle agreement, exhaustively over all value pairs.
    for p in values:
        a, fa = rats[p], Fraction(p.num, p.den)
        for q in values:
            b, fb = rats[q], Fraction(q.num, q.den)
            s, m = rat_add(a, b), rat_mul(a, b)
            if not ratrel_holds(s.pair, rat_add(b, a).pair):
                bad += 1
            if not ratrel_holds(m.pair, rat_mul(b, a).pair):
                bad += 1
            fs, fm = fa + fb, fa * fb
            if not ratrel_holds(s.pair, (fs.numerator, fs.denominator)):
                bad += 1
            if not ratrel_holds(m.pair, (fm.numerator, fm.denominator)):
                bad += 1

    # Ternary laws: exhaustive on the |num|,|den| <= 3 sub-grid, plus a
    # seeded sample of triples from the full grid.
    small = [rats[p] for p in values if abs(p.num) <= 3 and abs(p.den) <= 3]
    rng = random.Random(20260810)
    sampled = [tuple(rats[rng.choice(values)] for _ in range(3)) for _ in range(8000)]
    triples = [(a, b, c) for a in small for b in small for c in small]
    for a, b, c in triples + sampled:
        if not ratrel_holds(rat_add(rat_add(a, b), c).pair, rat_add(a, rat_add(b, c)).pair):
            bad += 1
        if not ratrel_holds(rat_mul(rat_mul(a, b), c).pair, rat_mul(a, rat_mul(b, c)).pair):
            bad += 1
        if not ratrel_holds(rat_mul(rat_add(a, b), c).pair,
                            rat_add(rat_mul(a, c), rat_mul(b, c)).pair):
            bad += 1

    _report("C8", bad == 0,
            f"field laws and Fraction-oracle agreement over {len(values)} values "
            f"(binary laws exhaustive; {len(triples)} + {len(sampled)} triples)")


def test_c9_cli_determinism(capsys):
    from test_cli import CASES, GOLDEN
    from quotients import cli

    bad = []
    for golden, argv, code in CASES:
        rc = cli.main(argv)
        out = capsys.readouterr().out
        if rc != code or out != (GOLDEN / golden).read_text():
            bad.append(golden)
        rc2 = cli.main(argv)
        out2 = capsys.readouterr().out
        if out2 != out:
            bad.append(golden + " (rerun)")
    with capsys.disabled():
        _report("C9", not bad,
                f"{len(CASES)} golden invocations byte-identical"
                + (f"; failed: {bad}" if bad else ""))
