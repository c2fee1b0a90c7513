"""Integers as equivalence classes of pairs of naturals.

A pair (x, y) stands for the integer x - y; two pairs are related when
x + v = u + y, an equation stated entirely in the naturals.  A `QInt` is
such a class.  Each operation is a RespectMap on representatives, certified
representative-independent by the bounded congruence checks and applied to
classes by `equiv.operation`.  The native-int bridge `from_native` and
`to_native` reads `int-eval`'s literals and prints its results, and the
tests compare against it.  The maps return plain `(x, y)` tuples; a class
stores the canonical `IntPair` that `class_of` makes of its image.

`intrel.related_pairs` is a `PairStream`: each pair is generated once per
process, `related_pairs(b)` is a prefix of `related_pairs(b')` for b <= b',
and the kept pairs are bounded by the largest budget asked.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, NamedTuple

from .equiv import EquivClass, EquivRelation, PairStream, RespectMap, class_of, operation


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


def _shift_pairs() -> Iterator[tuple[list[IntPair], list[IntPair]]]:
    # One tier per grade s = x + y + k, so small cases come first; k >= 1
    # keeps every emitted pair informative (a shift, not mere reflexivity).
    # rows[m] holds the IntPairs with x + y = m by x, each built once:
    # shifting rows[s - k][x] by k gives rows[s + k][x + k].
    rows: list[list[IntPair]] = []
    for s in itertools.count(1):
        while len(rows) <= 2 * s:
            m = len(rows)
            rows.append([IntPair(x, m - x) for x in range(m + 1)])
        lefts, rights = [], []
        for k in range(1, s + 1):
            lefts += rows[s - k]
            rights += rows[s + k][k:s + 1]
        yield lefts, rights


intrel: EquivRelation[IntPair] = EquivRelation(
    name="intrel",
    decider=intrel_holds,
    carrier=_is_nat_pair,
    related_pairs=PairStream(_shift_pairs),
    canonicalize=canonical,
)


class QInt(EquivClass[IntPair]):
    """An integer as a canonically-stored equivalence class of IntPairs.
    Its operators `+`, `*`, unary `-` and `<=` are the lifted operations."""

    __slots__ = ()

    @property
    def pair(self) -> IntPair:
        return self.representative

    def __repr__(self) -> str:
        return f"QInt({self.pair.x}, {self.pair.y})"


def qint(x: int, y: int) -> QInt:
    """The integer named by the pair (x, y), i.e. x - y."""
    return class_of(intrel, IntPair(x, y), QInt)


def zero() -> QInt:
    return qint(0, 0)


def one() -> QInt:
    return qint(1, 0)


# Representative-level bodies of the operations.  These are what the
# congruence checker certifies; the QInt operations below are these maps
# applied to the stored (canonical) representatives by `equiv.operation`.
# They return plain tuples, which the checker compares with intrel_holds
# and `class_of` canonicalizes into the stored `IntPair`.

def neg_pair(p) -> tuple[int, int]:
    return p[1], p[0]


def add_pair(p, q) -> tuple[int, int]:
    return p[0] + q[0], p[1] + q[1]


def sub_pair(p, q) -> tuple[int, int]:
    return p[0] + q[1], p[1] + q[0]


def mul_pair(p, q) -> tuple[int, int]:
    x, y, u, v = p[0], p[1], q[0], q[1]
    return x * u + y * v, x * v + y * u


def le_pair(p, q) -> bool:
    return p[0] + q[1] <= q[0] + p[1]


def nat_pair(p) -> int:
    # Truncated natural subtraction: x - y, or 0 when x <= y.
    return p[0] - p[1] if p[0] >= p[1] else 0


NEG_MAP = RespectMap(neg_pair, (intrel,), intrel_holds, name="neg")
NAT_MAP = RespectMap(nat_pair, (intrel,), operator.eq, name="nat")
ADD_MAP = RespectMap(add_pair, (intrel, intrel), intrel_holds, name="add")
MUL_MAP = RespectMap(mul_pair, (intrel, intrel), intrel_holds, name="mul")
LE_MAP = RespectMap(le_pair, (intrel, intrel), operator.eq, name="le")
SUB_MAP = RespectMap(sub_pair, (intrel, intrel), intrel_holds, name="sub")

neg = operation(NEG_MAP, QInt)
add = operation(ADD_MAP, QInt)
sub = operation(SUB_MAP, QInt)
mul = operation(MUL_MAP, QInt)
le = operation(LE_MAP)
to_nat = operation(NAT_MAP)
QInt.__add__, QInt.__mul__, QInt.__neg__, QInt.__le__ = add, mul, neg, le

# The integer operations, declared once: eval symbol to lifted operation
# (each names its map) in `check int-congruence` order, and the symbols it
# also certifies by commutativity.
OPERATIONS = {"neg": neg, "nat": to_nat, "+": add, "*": mul, "le": le, "-": sub}
COMMUTATIVE = ("+", "*")


def from_native(i: int) -> QInt:
    """A native signed integer as a QInt."""
    return qint(i, 0) if i >= 0 else qint(0, -i)


def to_native(z: QInt) -> int:
    """The signed integer a QInt denotes."""
    return z.pair.x - z.pair.y
