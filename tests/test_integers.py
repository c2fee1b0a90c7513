"""The integer quotient, validated against native signed arithmetic."""

import itertools

import pytest
from hypothesis import given, strategies as st

import pair_oracles

from quotients import integers
from quotients.equiv import (
    RespectMap,
    Verdict,
    check_respects,
    class_eq,
    class_of,
    revalidate_counterexample,
)
from quotients.errors import RelationMismatchError
from quotients.integers import (
    IntPair,
    QInt,
    add,
    add_pair,
    canonical,
    from_native,
    intrel,
    intrel_holds,
    le,
    mul,
    mul_pair,
    neg,
    neg_pair,
    one,
    qint,
    to_nat,
    to_native,
    zero,
)
from quotients.rationals import qrat

nats = st.integers(0, 200)
small_ints = st.integers(-60, 60)


def test_intrel_holds_examples():
    assert intrel_holds((3, 1), (5, 3))
    assert intrel_holds((0, 0), (0, 0))
    assert not intrel_holds((1, 0), (0, 1))
    for bad in (None, 5, (1,)):
        assert not intrel.carrier(bad)


@pytest.mark.parametrize(
    "pair,expected",
    [((3, 1), (2, 0)), ((1, 3), (0, 2)), ((4, 4), (0, 0))],
)
def test_canonical_examples(pair, expected):
    assert canonical(pair) == expected


@given(nats, nats)
def test_canonical_idempotent_and_related(x, y):
    p = IntPair(x, y)
    c = canonical(p)
    assert canonical(c) == c
    assert intrel_holds(p, c)
    assert min(c) == 0


def test_constants():
    assert zero().pair == (0, 0)
    assert one().pair == (1, 0)
    assert class_eq(zero(), class_of(intrel, IntPair(7, 7)))


def test_neg_examples():
    assert to_native(neg(qint(3, 1))) == -2
    assert neg(zero()) == zero()


@given(nats, nats)
def test_neg_involutive(x, y):
    z = qint(x, y)
    assert neg(neg(z)) == z


def test_add_examples():
    assert add(qint(1, 0), qint(1, 0)).pair == (2, 0)
    assert add(qint(0, 2), qint(3, 0)).pair == (1, 0)


@given(nats, nats)
def test_add_identity(x, y):
    z = qint(x, y)
    assert add(z, zero()) == z


def test_mul_examples():
    assert mul(qint(2, 0), qint(0, 3)).pair == (0, 6)


@given(nats, nats)
def test_mul_identity_and_annihilator(x, y):
    z = qint(x, y)
    assert mul(z, one()) == z
    assert mul(z, zero()) == zero()


def test_le_examples():
    assert le(qint(0, 2), qint(1, 0))
    assert not le(qint(1, 0), qint(0, 1))


@given(nats, nats)
def test_le_reflexive(x, y):
    z = qint(x, y)
    assert le(z, z)


def test_to_nat_examples():
    assert to_nat(qint(5, 2)) == 3
    assert to_nat(qint(2, 5)) == 0
    assert to_nat(zero()) == 0


def test_native_bridge_examples():
    assert from_native(-2).pair == (0, 2)
    assert to_native(qint(3, 1)) == 2
    for i in range(-100, 101):
        assert to_native(from_native(i)) == i


@given(small_ints, small_ints)
def test_homomorphism_vs_native(i, j):
    a, b = from_native(i), from_native(j)
    assert to_native(add(a, b)) == i + j
    assert to_native(mul(a, b)) == i * j
    assert to_native(neg(a)) == -i
    assert le(a, b) == (i <= j)
    assert to_nat(a) == max(i, 0)


@given(st.integers(0, 30), st.integers(0, 30), st.integers(1, 10), st.integers(0, 12), st.integers(0, 12))
def test_representative_independence(x, y, k, u, v):
    base, shifted = qint(x, y), qint(x + k, y + k)
    w = qint(u, v)
    assert base == shifted
    assert neg(base) == neg(shifted)
    assert to_nat(base) == to_nat(shifted)
    assert add(base, w) == add(shifted, w)
    assert add(w, base) == add(w, shifted)
    assert mul(base, w) == mul(shifted, w)
    assert le(base, w) == le(shifted, w)
    assert le(w, base) == le(w, shifted)


@given(small_ints, small_ints, small_ints)
def test_ring_laws(i, j, k):
    z1, z2, z3 = from_native(i), from_native(j), from_native(k)
    assert neg(neg(z1)) == z1
    assert neg(add(z1, z2)) == add(neg(z1), neg(z2))
    assert mul(neg(z1), z2) == neg(mul(z1, z2))
    assert mul(mul(z1, z2), z3) == mul(z1, mul(z2, z3))
    assert mul(z1, z2) == mul(z2, z1)
    assert mul(add(z1, z2), z3) == add(mul(z1, z3), mul(z2, z3))


class TestOrdering:
    grid = [from_native(i) for i in range(-12, 13, 3)]

    def test_total(self):
        for a in self.grid:
            for b in self.grid:
                assert le(a, b) or le(b, a)

    def test_antisymmetric_up_to_class_eq(self):
        for a in self.grid:
            for b in self.grid:
                if le(a, b) and le(b, a):
                    assert a == b

    def test_transitive(self):
        for a in self.grid:
            for b in self.grid:
                for c in self.grid:
                    if le(a, b) and le(b, c):
                        assert le(a, c)

    def test_add_monotone(self):
        for a in self.grid:
            for b in self.grid:
                if not le(a, b):
                    continue
                for c in self.grid:
                    assert le(add(a, c), add(b, c))

    def test_mul_monotone_by_nonnegative(self):
        nonneg = [c for c in self.grid if le(zero(), c)]
        for a in self.grid:
            for b in self.grid:
                if not le(a, b):
                    continue
                for c in nonneg:
                    assert le(mul(a, c), mul(b, c))
                    assert to_native(mul(a, c)) <= to_native(mul(b, c))


def test_dunder_operators():
    assert qint(2, 0) + qint(0, 3) == from_native(-1)
    assert qint(2, 0) * qint(0, 3) == from_native(-6)
    assert -qint(2, 0) == from_native(-2)
    assert qint(0, 1) <= qint(1, 0)


def test_operators_are_the_lifted_operations():
    # No method of its own: each operator is the table's operation.
    ops = integers.OPERATIONS
    assert QInt.__add__ is ops["+"] and QInt.__mul__ is ops["*"]
    assert QInt.__neg__ is ops["neg"] and QInt.__le__ is ops["le"]
    with pytest.raises(RelationMismatchError):
        qint(1, 0) + qrat(1, 2)


def test_shift_pairs_match_reference():
    # The same first 50,000 pairs as the nested-loop generator, element
    # types included; only the sharing of equal elements differs.
    ours = list(itertools.islice(intrel.related_pairs(50_000), 50_000))
    assert ours == list(itertools.islice(pair_oracles.shift_pairs(), 50_000))
    assert {type(e) for pair in ours for e in pair} == {IntPair}


def test_maps_return_plain_tuples_and_classes_store_int_pairs():
    p, q = IntPair(3, 1), IntPair(0, 4)
    outs = [neg_pair(p), add_pair(p, q), mul_pair(p, q)]
    assert [type(out) for out in outs] == [tuple] * 3
    assert outs == [(1, 3), (3, 5), (4, 12)]
    assert type(add(qint(1, 0), qint(0, 3)).pair) is IntPair
    assert type(mul(qint(1, 0), qint(0, 3)).pair) is IntPair
    assert type(neg(qint(1, 0)).pair) is IntPair
    assert neg(qint(5, 2)).pair.x == 0 and neg(qint(5, 2)).pair.y == 3


def test_broken_map_counterexample_revalidates():
    # Keeps p's second component and drops q's: not a map on classes.
    broken = RespectMap(lambda p, q: (p[0] + q[0], p[1]), (intrel, intrel), intrel_holds)
    report = check_respects(broken, 100)
    assert report.verdict is Verdict.REFUTED
    assert revalidate_counterexample(report)
