"""A message algebra with encrypt/decrypt cancellation, built as a quotient.

The free layer is an ordinary term datatype: nonces, pairing, encryption,
decryption.  The intended equations crypt k (decrypt k X) = X and
decrypt k (crypt k X) = X are imposed by an equivalence generated from eight
rules: the two cancellation axioms, four constructor-compatibility rules
(which also make the relation reflexive), symmetry, and transitivity.

Two independent routes decide that equivalence:

* `normalize` orients the cancellation equations left-to-right as a rewrite
  system.  Every step shrinks the term, and all critical pairs converge, so
  normal forms are unique and `msg_eq` compares them structurally.
* `closure_classes` computes the least fixpoint of the eight rules over a
  bounded term universe, never consulting the rewriter, and returns it as
  the partition of that universe into classes.  The enumeration records
  each term's shape (constructor, key or value, child indices) as it builds
  the term, and the closure works on those shapes alone: it never hashes a
  term, and its cancellation seeds are shape tests.

Tests drive the two against each other: `msg_relation` decides by
rewriting and draws the congruence checker's related pairs from the
partition, smallest first.  The pairs come in size layers, each sorted on
its own, as indices, as a request reaches it, so a check costs the closure
plus the layers up to its budget.  A `Msg` is a class of the relation decided by
rewriting, and its operations are the free functions' respect maps applied
to classes by `equiv.operation`.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .equiv import EquivClass, EquivRelation, RespectMap, class_of, operation
from .errors import UniverseTooLargeError


class FreeMsg:
    """Base of the free message terms."""

    __slots__ = ()


# Each term hashes with its constructor's tag (0 crypt, 1 decrypt, 2 mpair,
# 3 nonce, as in `_Universe`).  The generated dataclass hash leaves the class
# out, so Crypt(k, x) and Decrypt(k, x) would collide, and collisions would
# double with every wrapper level.
@dataclass(frozen=True)
class Nonce(FreeMsg):
    value: int

    def __hash__(self) -> int:
        return hash((3, self.value))


@dataclass(frozen=True)
class MPair(FreeMsg):
    left: FreeMsg
    right: FreeMsg

    def __hash__(self) -> int:
        return hash((2, self.left, self.right))


@dataclass(frozen=True)
class Crypt(FreeMsg):
    key: int
    body: FreeMsg

    def __hash__(self) -> int:
        return hash((0, self.key, self.body))


@dataclass(frozen=True)
class Decrypt(FreeMsg):
    key: int
    body: FreeMsg

    def __hash__(self) -> int:
        return hash((1, self.key, self.body))


def well_formed(t) -> bool:
    """Membership in the carrier: a finite term whose nonces and keys are
    naturals (ints, not bools, which would print as names)."""
    if isinstance(t, Nonce):
        return type(t.value) is int and t.value >= 0
    if isinstance(t, MPair):
        return well_formed(t.left) and well_formed(t.right)
    if isinstance(t, (Crypt, Decrypt)):
        return type(t.key) is int and t.key >= 0 and well_formed(t.body)
    return False


# ---------------------------------------------------------------------------
# Rewriting to normal form

def normalize(t: FreeMsg) -> FreeMsg:
    """Innermost (leftmost) reduction to the unique redex-free form.

    Children are normalized first; a root redex then contracts to an
    already-normal subterm, so one root check suffices.
    """
    if isinstance(t, Nonce):
        return t
    if isinstance(t, MPair):
        return MPair(normalize(t.left), normalize(t.right))
    if isinstance(t, Crypt):
        body = normalize(t.body)
        if isinstance(body, Decrypt) and body.key == t.key:
            return body.body
        return Crypt(t.key, body)
    body = normalize(t.body)
    if isinstance(body, Crypt) and body.key == t.key:
        return body.body
    return Decrypt(t.key, body)


def msg_eq(u: FreeMsg, v: FreeMsg) -> bool:
    """Decide the message equivalence by comparing normal forms."""
    return normalize(u) == normalize(v)


# ---------------------------------------------------------------------------
# Functions on the free algebra

def freenonces(t: FreeMsg) -> frozenset[int]:
    """All nonces in a term; encryption and decryption are transparent."""
    found, stack = set(), [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Nonce):
            found.add(t.value)
        elif isinstance(t, MPair):
            stack += (t.left, t.right)
        else:
            stack.append(t.body)
    return frozenset(found)


def freeleft(t: FreeMsg) -> FreeMsg:
    """Left part of the topmost pair, looking through crypt/decrypt."""
    while not isinstance(t, (Nonce, MPair)):
        t = t.body
    return t.left if isinstance(t, MPair) else t


def freeright(t: FreeMsg) -> FreeMsg:
    """Mirror image of `freeleft`."""
    while not isinstance(t, (Nonce, MPair)):
        t = t.body
    return t.right if isinstance(t, MPair) else t


def freediscrim(t: FreeMsg) -> int:
    """Constructor discriminator: 0 for nonces, 1 for pairs, +2 per
    encryption, -2 per decryption.  Signed: cancelling wrappers must cancel
    exactly for this to respect the equivalence."""
    d = 0
    while not isinstance(t, (Nonce, MPair)):
        d += 2 if isinstance(t, Crypt) else -2
        t = t.body
    return d + 1 if isinstance(t, MPair) else d


def freediscrim_truncated(t: FreeMsg) -> int:
    """Deliberately broken variant: decryption subtracts in truncated
    natural arithmetic.  Does not respect the equivalence; kept as the
    standard negative test for the congruence checker."""
    crypts = []  # per wrapper, outermost first: is it a crypt?
    while not isinstance(t, (Nonce, MPair)):
        crypts.append(isinstance(t, Crypt))
        t = t.body
    d = 1 if isinstance(t, MPair) else 0
    for is_crypt in reversed(crypts):  # inside out: the truncation does not commute
        d = d + 2 if is_crypt else max(d - 2, 0)
    return d


# ---------------------------------------------------------------------------
# Bounded term universe and the inductive-closure oracle

DEFAULT_KEYS = (0, 1)
DEFAULT_NONCES = (0, 1)
MAX_TERMS = 500_000
SAMPLING_BOUND = 5  # universe bound backing the default msgrel pair generator


def _domains(keys, nonces) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(sorted(set(keys))), tuple(sorted(set(nonces)))


def _running_sizes(bound: int, keys, nonces):
    """Number of terms of size <= s for s = 1, ..., bound, by recurrence."""
    counts = [0]
    for s in range(1, bound + 1):
        mpairs = sum(counts[i] * counts[s - 1 - i] for i in range(1, s - 1))
        counts.append(mpairs + 2 * len(keys) * counts[s - 1] if s > 1 else len(nonces))
        yield sum(counts)


def universe_size(bound: int, keys=DEFAULT_KEYS, nonces=DEFAULT_NONCES) -> int:
    """Number of terms of size <= bound, by recurrence (no enumeration)."""
    keys, nonces = _domains(keys, nonces)
    return max(_running_sizes(bound, keys, nonces), default=0)


class _Universe(NamedTuple):
    """A bounded universe, graded by size.  `shapes[i]` is term i's
    constructor as `(tag, key, body)` with tag 0 for crypt and 1 for
    decrypt, `(2, left, right)` for mpair or `(3, value)` for nonce, its
    children given by index; every child comes before its parent.  Terms
    of size s are `terms[starts[s - 1]:starts[s]]`."""

    terms: list[FreeMsg]
    shapes: list[tuple[int, ...]]
    starts: list[int]


def _enumerate(bound: int, keys, nonces) -> _Universe:
    """The terms of size <= bound, size by size, each with its shape; the
    shapes are recorded as the terms are built, so no term is hashed."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    # The full recurrence takes seconds for a bound in the thousands; stopping
    # past MAX_TERMS**2 costs a few layers beyond the cap and still gives the
    # error the exact size of any universe below that.
    for total in _running_sizes(bound, keys, nonces):
        if total > MAX_TERMS**2:
            break
    if total > MAX_TERMS:
        raise UniverseTooLargeError(total, MAX_TERMS)
    terms: list[FreeMsg] = [Nonce(n) for n in nonces]
    shapes: list[tuple[int, ...]] = [(3, n) for n in nonces]
    starts = [0, len(terms)]
    for s in range(2, bound + 1):
        for i in range(1, s - 1):
            for l in range(starts[i - 1], starts[i]):
                for r in range(starts[s - 2 - i], starts[s - 1 - i]):
                    terms.append(MPair(terms[l], terms[r]))
                    shapes.append((2, l, r))
        for tag, make in ((0, Crypt), (1, Decrypt)):
            for k in keys:
                for b in range(starts[s - 2], starts[s - 1]):
                    terms.append(make(k, terms[b]))
                    shapes.append((tag, k, b))
        starts.append(len(terms))
    return _Universe(terms, shapes, starts)


def enumerate_terms(
    bound: int,
    keys=DEFAULT_KEYS,
    nonces=DEFAULT_NONCES,
) -> list[FreeMsg]:
    """All terms of size <= bound over the given key/nonce domains, graded
    by size.  Raises UniverseTooLargeError before enumerating anything that
    would blow the cap."""
    keys, nonces = _domains(keys, nonces)
    return _enumerate(bound, keys, nonces).terms


def _closure(bound: int, keys, nonces) -> tuple[_Universe, list[list[int]]]:
    """Union-find least fixpoint of the eight rules over the bounded
    universe, as its partition into classes of indices.

    The closure works on shapes alone and never hashes a term.
    Reflexivity, symmetry, and transitivity live in the union-find
    structure; the cancellation axioms are the seed unions, found by a shape
    test (a crypt or decrypt whose body has the opposite tag and the same
    key joins its grandchild); the constructor rules are applied by merging
    terms whose (constructor, class-of-parts) signatures collide, until
    nothing changes.  Agreement with the naive rule-by-rule iteration is
    itself a tested property.
    """
    universe = _enumerate(bound, keys, nonces)
    shapes = universe.shapes
    n = len(shapes)

    parent = list(range(n))

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def union(i: int, j: int) -> bool:
        ri, rj = find(i), find(j)
        if ri == rj:
            return False
        if rj < ri:
            ri, rj = rj, ri
        parent[rj] = ri
        return True

    for i, shape in enumerate(shapes):
        tag = shape[0]
        if tag < 2:
            body = shapes[shape[2]]
            if body[0] == 1 - tag and body[1] == shape[1]:
                union(i, body[2])

    changed = True
    while changed:
        changed = False
        seen: dict = {}
        for i, shape in enumerate(shapes):
            tag = shape[0]
            if tag == 3:
                sig = shape
            elif tag == 2:
                sig = (tag, find(shape[1]), find(shape[2]))
            else:
                sig = (tag, shape[1], find(shape[2]))
            j = seen.get(sig)
            if j is None:
                seen[sig] = i
            elif union(i, j):
                changed = True

    classes: dict[int, list[int]] = {}
    for i in range(n):
        classes.setdefault(find(i), []).append(i)
    return universe, list(classes.values())


def closure_classes(
    bound: int,
    keys=DEFAULT_KEYS,
    nonces=DEFAULT_NONCES,
) -> tuple[tuple[FreeMsg, ...], ...]:
    """The universe's partition under the rule closure: two terms are
    related exactly when they share a class.  Members keep universe order,
    and classes come in the order of their first members."""
    keys, nonces = _domains(keys, nonces)
    universe, classes = _closure(bound, keys, nonces)
    terms = universe.terms
    return tuple(tuple(terms[i] for i in members) for members in classes)


class _PairLayers:
    """A universe's related pairs, smallest first: by total size, then by
    the sort key of each side.  A term's sort key is its shape with each
    child index replaced by the child's sort key, so terms order by tag
    (crypt, decrypt, mpair, nonce), then key or value, then parts.  Each class's members
    are grouped by the size their index falls in, every pair of size groups
    is filed under the layer of its total size, and `take` sorts and emits
    whole layers, as index pairs, until the budget is met."""

    def __init__(self, universe: _Universe, classes) -> None:
        terms, shapes, starts = universe
        blocks: dict[int, list] = {}
        for members in classes:
            groups: dict[int, list[int]] = {}
            for i in members:
                groups.setdefault(bisect.bisect_right(starts, i), []).append(i)
            for (a, us), (b, vs) in itertools.product(groups.items(), repeat=2):
                blocks.setdefault(a + b, []).append((us, vs))
        sort_keys: list[tuple] = []
        for shape in shapes:
            tag, a = shape[0], shape[1]
            if tag == 3:
                sort_keys.append(shape)
            elif tag == 2:
                sort_keys.append((tag, sort_keys[a], sort_keys[shape[2]]))
            else:
                sort_keys.append((tag, a, sort_keys[shape[2]]))
        self._terms, self._sort_keys = terms, sort_keys
        self._layers = iter([blocks[s] for s in sorted(blocks)])
        self._pairs: list[tuple[FreeMsg, FreeMsg]] = []
        self._lock = threading.Lock()

    def take(self, budget: int) -> list[tuple[FreeMsg, FreeMsg]]:
        terms, sort_keys = self._terms, self._sort_keys
        with self._lock:
            while len(self._pairs) < budget:
                layer_blocks = next(self._layers, None)
                if layer_blocks is None:
                    break
                layer = [(u, v) for us, vs in layer_blocks for u in us for v in vs]
                layer.sort(key=lambda p: (sort_keys[p[0]], sort_keys[p[1]]))
                self._pairs += [(terms[u], terms[v]) for u, v in layer]
            return self._pairs[:budget]


@lru_cache(maxsize=8)
def _pair_layers(bound: int, keys, nonces) -> _PairLayers:
    return _PairLayers(*_closure(bound, keys, nonces))


def _sorted_pairs(bound: int, keys, nonces, budget: int) -> list[tuple[FreeMsg, FreeMsg]]:
    """The first `budget` related pairs of the universe, smallest first."""
    return _pair_layers(bound, keys, nonces).take(budget)


def msg_relation(
    bound: int = SAMPLING_BOUND,
    keys=DEFAULT_KEYS,
    nonces=DEFAULT_NONCES,
) -> EquivRelation[FreeMsg]:
    """The message equivalence as an executable relation.

    The decider is the rewriting route; the related-pair generator draws
    from the closure oracle over the configured universe, so the two routes
    keep each other honest wherever this relation feeds the congruence
    checker.  Pairs come smallest first, by total size and then by each
    side's constructor (crypt, decrypt, mpair, nonce), key or value, and
    parts, from a per-universe stream that sorts one size layer at a time:
    a request for `budget` pairs costs the closure (once per universe) plus
    the layers up to the budget."""
    keys, nonces = _domains(keys, nonces)
    default = bound == SAMPLING_BOUND and keys == DEFAULT_KEYS and nonces == DEFAULT_NONCES
    name = "msgrel" if default else f"msgrel[bound={bound},keys={keys},nonces={nonces}]"

    def pairs(budget: int):
        return _sorted_pairs(bound, keys, nonces, budget)

    return EquivRelation(
        name=name,
        decider=msg_eq,
        carrier=well_formed,
        related_pairs=pairs,
        canonicalize=normalize,
    )


msgrel: EquivRelation[FreeMsg] = msg_relation()


def free_maps(rel: EquivRelation[FreeMsg]) -> dict[str, RespectMap]:
    """Respect maps for the free functions over `rel`, keyed by name, ready
    for the congruence checker; `freediscrim_truncated` is the negative
    test."""
    return {
        name: RespectMap(fn, (rel,), target_eq, name=name)
        for name, fn, target_eq in (
            ("freenonces", freenonces, operator.eq),
            ("freeleft", freeleft, msg_eq),
            ("freeright", freeright, msg_eq),
            ("freediscrim", freediscrim, operator.eq),
            ("freediscrim_truncated", freediscrim_truncated, operator.eq),
        )
    }


FREENONCES_MAP, FREELEFT_MAP, FREERIGHT_MAP, FREEDISCRIM_MAP, FREEDISCRIM_TRUNCATED_MAP = (
    free_maps(msgrel).values()
)


MPAIR_MAP = RespectMap(MPair, (msgrel, msgrel), msg_eq, name="MPAIR")


def crypt_map(k: int) -> RespectMap:
    return RespectMap(lambda t: Crypt(k, t), (msgrel,), msg_eq, name=f"CRYPT {k}")


def decrypt_map(k: int) -> RespectMap:
    return RespectMap(lambda t: Decrypt(k, t), (msgrel,), msg_eq, name=f"DECRYPT {k}")


# ---------------------------------------------------------------------------
# The quotient type and its lifted operations

class Msg(EquivClass[FreeMsg]):
    """A message modulo the cancellation equations, stored in normal form."""

    @property
    def rep(self) -> FreeMsg:
        return self.representative

    def __repr__(self) -> str:
        return f"Msg({self.rep!r})"


def msg(t: FreeMsg) -> Msg:
    """The class of a free term."""
    return class_of(msgrel, t, Msg)


# Injected directly: the number argument is not a class.

def nonce(n: int) -> Msg:
    return msg(Nonce(n))


# Keys are unbounded naturals, so the per-key ops live in a bounded cache.
@lru_cache(maxsize=256)
def _keyed_op(key_map, k: int):
    return operation(key_map(k), Msg)


def crypt(k: int, a: Msg) -> Msg:
    return _keyed_op(crypt_map, k)(a)


def decrypt(k: int, a: Msg) -> Msg:
    return _keyed_op(decrypt_map, k)(a)


mpair = operation(MPAIR_MAP, Msg)
nonces = operation(FREENONCES_MAP)
left = operation(FREELEFT_MAP, Msg)
right = operation(FREERIGHT_MAP, Msg)
discrim = operation(FREEDISCRIM_MAP)
