"""Rationals as classes of integer pairs under cross-multiplication.

The carrier excludes zero denominators; (x, y) ~ (u, v) iff x*v = u*y.
The arithmetic formulas are the conventional fraction ones and are treated
as candidates: the congruence checker, not the formulas' pedigree, is what
certifies them.  Canonicalization (reduced form, positive denominator) is a
storage convenience only; every correctness claim routes through the
relation itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .equiv import EquivClass, EquivRelation, RespectMap, class_of
from .errors import DomainError, RelationMismatchError


class RatPair(NamedTuple):
    num: int
    den: int


def ratrel_holds(p, q) -> bool:
    """(x, y) ~ (u, v) iff x*v = u*y, for nonzero denominators."""
    if p[1] == 0 or q[1] == 0:
        raise DomainError("zero denominator")
    return p[0] * q[1] == q[0] * p[1]


def rat_canonical(p) -> RatPair:
    """Reduced form with positive denominator; zero is (0, 1)."""
    num, den = p[0], p[1]
    if den == 0:
        raise DomainError("zero denominator")
    if num == 0:
        return RatPair(0, 1)
    g = math.gcd(abs(num), abs(den))
    num, den = num // g, den // g
    if den < 0:
        num, den = -num, -den
    return RatPair(num, den)


def _is_rat_pair(p) -> bool:
    try:
        num, den = p[0], p[1]
    except (TypeError, IndexError):
        return False
    return isinstance(num, int) and isinstance(den, int) and den != 0


def _scaled_pairs() -> Iterator[tuple[RatPair, RatPair]]:
    # Pairs ((x, y), (k*x, k*y)) graded by |x| + |y| + |k|; k = 1 is skipped
    # as uninformative, negative x and k are included.
    for s in itertools.count(3):
        for k_mag in range(1, s - 1):
            for k in ((-k_mag, k_mag) if k_mag > 1 else (-1,)):
                for x_mag in range(0, s - k_mag):
                    y = s - k_mag - x_mag
                    for x in ((x_mag,) if x_mag == 0 else (x_mag, -x_mag)):
                        yield RatPair(x, y), RatPair(k * x, k * y)


def _ratrel_pairs(budget: int) -> list[tuple[RatPair, RatPair]]:
    return list(itertools.islice(_scaled_pairs(), budget))


ratrel: EquivRelation[RatPair] = EquivRelation(
    name="ratrel",
    decider=ratrel_holds,
    carrier=_is_rat_pair,
    related_pairs=_ratrel_pairs,
    canonicalize=rat_canonical,
)


@dataclass(frozen=True)
class QRat:
    """A rational as a canonically-stored equivalence class of RatPairs."""

    cls: EquivClass[RatPair]

    @property
    def pair(self) -> RatPair:
        return self.cls.representative

    @property
    def num(self) -> int:
        return self.pair.num

    @property
    def den(self) -> int:
        return self.pair.den

    def __add__(self, other: "QRat") -> "QRat":
        return rat_add(self, other)

    def __mul__(self, other: "QRat") -> "QRat":
        return rat_mul(self, other)

    def __neg__(self) -> "QRat":
        return rat_neg(self)

    def __repr__(self) -> str:
        return f"QRat({self.num}/{self.den})"


def qrat(num: int, den: int) -> QRat:
    return QRat(class_of(ratrel, RatPair(num, den)))


def rat_from_native(i: int) -> QRat:
    return qrat(i, 1)


def add_pair(p, q) -> RatPair:
    return RatPair(p[0] * q[1] + q[0] * p[1], p[1] * q[1])


def mul_pair(p, q) -> RatPair:
    return RatPair(p[0] * q[0], p[1] * q[1])


def neg_pair(p) -> RatPair:
    return RatPair(-p[0], p[1])


def inv_pair(p) -> RatPair:
    if p[0] == 0:
        raise DomainError("zero has no multiplicative inverse")
    return RatPair(p[1], p[0])


RAT_ADD_MAP = RespectMap(add_pair, (ratrel, ratrel), ratrel_holds, name="rat_add")
RAT_MUL_MAP = RespectMap(mul_pair, (ratrel, ratrel), ratrel_holds, name="rat_mul")
RAT_NEG_MAP = RespectMap(neg_pair, (ratrel,), ratrel_holds, name="rat_neg")


def _rep(a: QRat, b: QRat) -> tuple[RatPair, RatPair]:
    if not a.cls.relation.same_as(b.cls.relation):
        raise RelationMismatchError("mixed-relation rational operation")
    return a.pair, b.pair


def rat_add(a: QRat, b: QRat) -> QRat:
    p, q = _rep(a, b)
    return QRat(class_of(ratrel, add_pair(p, q)))


def rat_mul(a: QRat, b: QRat) -> QRat:
    p, q = _rep(a, b)
    return QRat(class_of(ratrel, mul_pair(p, q)))


def rat_neg(a: QRat) -> QRat:
    return QRat(class_of(ratrel, neg_pair(a.pair)))


def rat_inv(a: QRat) -> QRat:
    """Multiplicative inverse; the zero class has none."""
    return QRat(class_of(ratrel, inv_pair(a.pair)))


def rat_zero() -> QRat:
    return qrat(0, 1)


def rat_one() -> QRat:
    return qrat(1, 1)
