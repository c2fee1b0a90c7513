"""Reference related-pair generators the integer and rational tests compare
against: the nested loops `integers._shift_pairs` and
`rationals._scaled_pairs` replace, which build both elements of every pair
afresh.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from quotients.integers import IntPair
from quotients.rationals import RatPair


def shift_pairs() -> Iterator[tuple[IntPair, IntPair]]:
    for s in itertools.count(1):
        for k in range(1, s + 1):
            for x in range(s - k + 1):
                y = s - k - x
                yield IntPair(x, y), IntPair(x + k, y + k)


def scaled_pairs() -> Iterator[tuple[RatPair, RatPair]]:
    for s in itertools.count(3):
        for k_mag in range(1, s - 1):
            for k in ((-k_mag, k_mag) if k_mag > 1 else (-1,)):
                for x_mag in range(0, s - k_mag):
                    y = s - k_mag - x_mag
                    for x in ((x_mag,) if x_mag == 0 else (x_mag, -x_mag)):
                        yield RatPair(x, y), RatPair(k * x, k * y)
