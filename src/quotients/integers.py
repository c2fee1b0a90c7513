"""Integers as equivalence classes of pairs of naturals.

A pair (x, y) stands for the integer x - y; two pairs are related when
x + v = u + y, an equation stated entirely in the naturals.  All arithmetic
is defined on representatives and certified representative-independent by
the bounded congruence checks; a native-int bridge is provided purely as a
test oracle.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .equiv import EquivClass, EquivRelation, RespectMap, class_of
from .errors import RelationMismatchError


class IntPair(NamedTuple):
    x: int
    y: int


def intrel_holds(p, q) -> bool:
    """Whether (x, y) and (u, v) name the same integer: x + v = u + y."""
    return p[0] + q[1] == q[0] + p[1]


def canonical(p) -> IntPair:
    """The representative with min(x, y) = 0, computed without leaving
    the naturals."""
    x, y = p[0], p[1]
    if x >= y:
        return IntPair(x - y, 0)
    return IntPair(0, y - x)


def _is_nat_pair(p) -> bool:
    try:
        x, y = p[0], p[1]
    except (TypeError, IndexError):
        return False
    return isinstance(x, int) and isinstance(y, int) and x >= 0 and y >= 0


def _shift_pairs() -> Iterator[tuple[IntPair, IntPair]]:
    # Graded by x + y + k so small cases come first; k >= 1 keeps every
    # emitted pair informative (a shift, not mere reflexivity).
    for s in itertools.count(1):
        for k in range(1, s + 1):
            for x in range(s - k + 1):
                y = s - k - x
                yield IntPair(x, y), IntPair(x + k, y + k)


def _intrel_pairs(budget: int) -> list[tuple[IntPair, IntPair]]:
    return list(itertools.islice(_shift_pairs(), budget))


intrel: EquivRelation[IntPair] = EquivRelation(
    name="intrel",
    decider=intrel_holds,
    carrier=_is_nat_pair,
    related_pairs=_intrel_pairs,
    canonicalize=canonical,
)


@dataclass(frozen=True)
class QInt:
    """An integer as a canonically-stored equivalence class of IntPairs."""

    cls: EquivClass[IntPair]

    @property
    def pair(self) -> IntPair:
        return self.cls.representative

    def __add__(self, other: "QInt") -> "QInt":
        return add(self, other)

    def __mul__(self, other: "QInt") -> "QInt":
        return mul(self, other)

    def __neg__(self) -> "QInt":
        return neg(self)

    def __le__(self, other: "QInt") -> bool:
        return le(self, other)

    def __repr__(self) -> str:
        return f"QInt({self.pair.x}, {self.pair.y})"


def qint(x: int, y: int) -> QInt:
    """The integer named by the pair (x, y), i.e. x - y."""
    return QInt(class_of(intrel, IntPair(x, y)))


def zero() -> QInt:
    return qint(0, 0)


def one() -> QInt:
    return qint(1, 0)


# Representative-level bodies of the lifted operations.  These are what the
# congruence checker certifies; the QInt operations below apply them to the
# stored (canonical) representatives.

def neg_pair(p) -> IntPair:
    return IntPair(p[1], p[0])


def add_pair(p, q) -> IntPair:
    return IntPair(p[0] + q[0], p[1] + q[1])


def mul_pair(p, q) -> IntPair:
    x, y, u, v = p[0], p[1], q[0], q[1]
    return IntPair(x * u + y * v, x * v + y * u)


def le_pair(p, q) -> bool:
    return p[0] + q[1] <= q[0] + p[1]


def nat_pair(p) -> int:
    # Truncated natural subtraction: x - y, or 0 when x <= y.
    return p[0] - p[1] if p[0] >= p[1] else 0


NEG_MAP = RespectMap(neg_pair, (intrel,), intrel_holds, name="neg")
NAT_MAP = RespectMap(nat_pair, (intrel,), operator.eq, name="nat")
ADD_MAP = RespectMap(add_pair, (intrel, intrel), intrel_holds, name="add")
MUL_MAP = RespectMap(mul_pair, (intrel, intrel), intrel_holds, name="mul")


def _rep(z: QInt, w: QInt) -> tuple[IntPair, IntPair]:
    if not z.cls.relation.same_as(w.cls.relation):
        raise RelationMismatchError("mixed-relation integer operation")
    return z.pair, w.pair


def neg(z: QInt) -> QInt:
    return QInt(class_of(intrel, neg_pair(z.pair)))


def add(z: QInt, w: QInt) -> QInt:
    p, q = _rep(z, w)
    return QInt(class_of(intrel, add_pair(p, q)))


def mul(z: QInt, w: QInt) -> QInt:
    p, q = _rep(z, w)
    return QInt(class_of(intrel, mul_pair(p, q)))


def le(z: QInt, w: QInt) -> bool:
    p, q = _rep(z, w)
    return le_pair(p, q)


def to_nat(z: QInt) -> int:
    return nat_pair(z.pair)


def from_native(i: int) -> QInt:
    """Oracle bridge: a native signed integer as a QInt."""
    return qint(i, 0) if i >= 0 else qint(0, -i)


def to_native(z: QInt) -> int:
    """Oracle bridge: the signed integer a QInt denotes."""
    return z.pair.x - z.pair.y
