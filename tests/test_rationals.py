"""The rational quotient under cross-multiplication.

The oracle is Python's Fraction, but every comparison goes through
ratrel_holds: reduced forms never serve as the arbiter.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quotients.equiv import Verdict, check_respects
from quotients.errors import DomainError
from quotients.rationals import (
    RAT_ADD_MAP,
    RAT_MUL_MAP,
    RAT_NEG_MAP,
    RatPair,
    qrat,
    rat_add,
    rat_canonical,
    rat_from_native,
    rat_inv,
    rat_mul,
    rat_neg,
    rat_one,
    rat_zero,
    ratrel,
    ratrel_holds,
)

numerators = st.integers(-40, 40)
denominators = st.integers(-40, 40).filter(lambda d: d != 0)


def agrees(q, frac: Fraction) -> bool:
    return ratrel_holds(q.pair, (frac.numerator, frac.denominator))


def test_ratrel_examples():
    assert ratrel_holds((1, 2), (2, 4))
    assert ratrel_holds((0, 5), (0, -3))
    assert not ratrel_holds((1, 2), (2, 3))


def test_ratrel_zero_denominator():
    with pytest.raises(DomainError):
        ratrel_holds((1, 0), (1, 1))
    with pytest.raises(DomainError):
        rat_canonical((1, 0))


@pytest.mark.parametrize(
    "pair,expected",
    [((2, 4), (1, 2)), ((3, -6), (-1, 2)), ((0, 7), (0, 1))],
)
def test_canonical_examples(pair, expected):
    assert rat_canonical(pair) == expected


@given(numerators, denominators)
def test_canonical_idempotent_and_related(num, den):
    p = RatPair(num, den)
    c = rat_canonical(p)
    assert rat_canonical(c) == c
    assert ratrel_holds(p, c)
    assert c.den > 0
    assert math.gcd(abs(c.num), c.den) == 1 or c.num == 0


def test_congruence_certified():
    assert check_respects(RAT_NEG_MAP, 300).verdict is Verdict.CERTIFIED
    assert check_respects(RAT_ADD_MAP, 400).verdict is Verdict.CERTIFIED
    assert check_respects(RAT_MUL_MAP, 400).verdict is Verdict.CERTIFIED


def test_add_example():
    assert agrees(rat_add(qrat(1, 2), qrat(1, 3)), Fraction(5, 6))


def test_mul_example_non_canonical_inputs():
    out = rat_mul(qrat(2, 4), qrat(3, 6))
    assert agrees(out, Fraction(1, 4))
    assert out.pair == (1, 4)


@given(numerators, denominators)
def test_add_identity(num, den):
    a = qrat(num, den)
    assert rat_add(a, rat_zero()) == a


@given(numerators, denominators, numerators, denominators)
def test_oracle_agreement(n1, d1, n2, d2):
    a, b = qrat(n1, d1), qrat(n2, d2)
    fa, fb = Fraction(n1, d1), Fraction(n2, d2)
    assert agrees(rat_add(a, b), fa + fb)
    assert agrees(rat_mul(a, b), fa * fb)
    assert agrees(rat_neg(a), -fa)


@given(numerators, denominators)
def test_inverse(num, den):
    a = qrat(num, den)
    if num == 0:
        with pytest.raises(DomainError):
            rat_inv(a)
    else:
        assert rat_mul(a, rat_inv(a)) == rat_one()


@given(numerators, denominators, st.integers(-5, 5).filter(lambda k: k != 0),
       numerators, denominators)
def test_representative_independence(num, den, k, num2, den2):
    base = qrat(num, den)
    scaled = qrat(k * num, k * den)
    other = qrat(num2, den2)
    assert base == scaled
    assert rat_add(base, other) == rat_add(scaled, other)
    assert rat_mul(base, other) == rat_mul(scaled, other)
    assert rat_neg(base) == rat_neg(scaled)


class TestFieldLaws:
    values = [RatPair(n, d) for n in range(-3, 4) for d in range(-3, 4) if d != 0]

    def test_commutativity(self):
        for p in self.values:
            for q in self.values:
                a, b = qrat(*p), qrat(*q)
                assert ratrel_holds(rat_add(a, b).pair, rat_add(b, a).pair)
                assert ratrel_holds(rat_mul(a, b).pair, rat_mul(b, a).pair)

    def test_associativity_and_distributivity(self):
        vals = [qrat(*p) for p in self.values if abs(p.num) <= 2 and abs(p.den) <= 2]
        for a in vals:
            for b in vals:
                for c in vals:
                    assert ratrel_holds(
                        rat_add(rat_add(a, b), c).pair, rat_add(a, rat_add(b, c)).pair
                    )
                    assert ratrel_holds(
                        rat_mul(rat_mul(a, b), c).pair, rat_mul(a, rat_mul(b, c)).pair
                    )
                    assert ratrel_holds(
                        rat_mul(rat_add(a, b), c).pair,
                        rat_add(rat_mul(a, c), rat_mul(b, c)).pair,
                    )

    def test_identities_and_inverse(self):
        for p in self.values:
            a = qrat(*p)
            assert rat_add(a, rat_zero()) == a
            assert rat_mul(a, rat_one()) == a
            assert rat_add(a, rat_neg(a)) == rat_zero()


def test_from_native():
    assert rat_from_native(3).pair == (3, 1)
    assert rat_from_native(-2).pair == (-2, 1)


def test_related_pairs_contract():
    for p, q in ratrel.related_pairs(200):
        assert ratrel.carrier(p) and ratrel.carrier(q)
        assert ratrel_holds(p, q)
