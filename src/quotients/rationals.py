"""Rationals as classes of integer pairs under cross-multiplication.

The carrier excludes zero denominators; (x, y) ~ (u, v) iff x*v = u*y.
The arithmetic formulas are the conventional fraction ones and are treated
as candidates: the congruence checker, not the formulas' pedigree, is what
certifies them.  Canonicalization (reduced form, positive denominator) is a
storage convenience only; every correctness claim routes through the
relation itself.  A `QRat` is such a class, and each operation is its
RespectMap applied to classes by `equiv.operation`.  The maps return plain
`(num, den)` tuples; a class stores the canonical `RatPair` that `class_of`
makes of its image.

`ratrel.related_pairs` is a `PairStream`: each pair is generated once per
process, `related_pairs(b)` is a prefix of `related_pairs(b')` for b <= b',
and the kept pairs are bounded by the largest budget asked.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple

from .equiv import EquivClass, EquivRelation, PairStream, RespectMap, class_of, operation
from .errors import DomainError


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


def _scaled_pairs() -> Iterator[tuple[list[RatPair], list[RatPair]]]:
    # Pairs ((x, y), (k*x, k*y)), one tier per grade |x| + |y| + |k|; k = 1
    # is skipped as uninformative, negative x and k are included.  rows[m]
    # holds the RatPairs with |x| + y = m and y >= 1 in emission order, each
    # built once; only the scaled partners are built per pair.
    rows: list[list[RatPair]] = [[], []]
    for s in itertools.count(3):
        m = s - 1
        rows.append([RatPair(0, m)] + [RatPair(x, m - j) for j in range(1, m) for x in (j, -j)])
        lefts, rights = [], []
        for k_mag in range(1, s - 1):
            row = rows[s - k_mag]
            for k in ((-k_mag, k_mag) if k_mag > 1 else (-1,)):
                lefts += row
                rights += [RatPair(k * x, k * y) for x, y in row]
        yield lefts, rights


ratrel: EquivRelation[RatPair] = EquivRelation(
    name="ratrel",
    decider=ratrel_holds,
    carrier=_is_rat_pair,
    related_pairs=PairStream(_scaled_pairs),
    canonicalize=rat_canonical,
)


class QRat(EquivClass[RatPair]):
    """A rational as a canonically-stored equivalence class of RatPairs.
    Its operators `+`, `*` and unary `-` are the lifted operations."""

    __slots__ = ()

    @property
    def pair(self) -> RatPair:
        return self.representative

    @property
    def num(self) -> int:
        return self.pair.num

    @property
    def den(self) -> int:
        return self.pair.den

    def __repr__(self) -> str:
        return f"QRat({self.num}/{self.den})"


def qrat(num: int, den: int) -> QRat:
    return class_of(ratrel, RatPair(num, den), QRat)


def rat_from_native(i: int) -> QRat:
    return qrat(i, 1)


def add_pair(p, q) -> tuple[int, int]:
    return p[0] * q[1] + q[0] * p[1], p[1] * q[1]


def mul_pair(p, q) -> tuple[int, int]:
    return p[0] * q[0], p[1] * q[1]


def neg_pair(p) -> tuple[int, int]:
    return -p[0], p[1]


def inv_pair(p) -> tuple[int, int]:
    if p[0] == 0:
        raise DomainError("zero has no multiplicative inverse")
    return p[1], p[0]


RAT_ADD_MAP = RespectMap(add_pair, (ratrel, ratrel), ratrel_holds, name="rat_add")
RAT_MUL_MAP = RespectMap(mul_pair, (ratrel, ratrel), ratrel_holds, name="rat_mul")
RAT_NEG_MAP = RespectMap(neg_pair, (ratrel,), ratrel_holds, name="rat_neg")
RAT_INV_MAP = RespectMap(inv_pair, (ratrel,), ratrel_holds, name="rat_inv")

rat_add = operation(RAT_ADD_MAP, QRat)
rat_mul = operation(RAT_MUL_MAP, QRat)
rat_neg = operation(RAT_NEG_MAP, QRat)
rat_inv = operation(RAT_INV_MAP, QRat)
QRat.__add__, QRat.__mul__, QRat.__neg__ = rat_add, rat_mul, rat_neg

# Declared as in `integers`.  `inv` is partial: inv_pair raises DomainError
# on the zero class, which holds the first related pair, so no suite runs it.
OPERATIONS = {"neg": rat_neg, "+": rat_add, "*": rat_mul}
COMMUTATIVE = ("+", "*")
PARTIAL = {"inv": rat_inv}


def rat_zero() -> QRat:
    return qrat(0, 1)


def rat_one() -> QRat:
    return qrat(1, 1)
