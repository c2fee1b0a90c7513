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
* `closure_oracle` computes the least fixpoint of the eight rules over a
  bounded term universe, never consulting the rewriter.

Tests drive the two against each other; the quotient-level `Msg` values and
their lifted operations rely on the rewriting route.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .equiv import EquivClass, EquivRelation, RespectMap, class_of
from .errors import UniverseTooLargeError


class FreeMsg:
    """Base of the free message terms."""

    __slots__ = ()


@dataclass(frozen=True)
class Nonce(FreeMsg):
    value: int


@dataclass(frozen=True)
class MPair(FreeMsg):
    left: FreeMsg
    right: FreeMsg


@dataclass(frozen=True)
class Crypt(FreeMsg):
    key: int
    body: FreeMsg


@dataclass(frozen=True)
class Decrypt(FreeMsg):
    key: int
    body: FreeMsg


def size(t: FreeMsg) -> int:
    """Number of constructor nodes."""
    if isinstance(t, Nonce):
        return 1
    if isinstance(t, MPair):
        return 1 + size(t.left) + size(t.right)
    return 1 + size(t.body)  # Crypt / Decrypt


def well_formed(t) -> bool:
    """Membership in the carrier: a finite term whose nonces and keys are
    naturals."""
    if isinstance(t, Nonce):
        return isinstance(t.value, int) and t.value >= 0
    if isinstance(t, MPair):
        return well_formed(t.left) and well_formed(t.right)
    if isinstance(t, (Crypt, Decrypt)):
        return isinstance(t.key, int) and t.key >= 0 and well_formed(t.body)
    return False


def term_key(t: FreeMsg):
    """A total-order key on terms; ties in the pair generators break on it."""
    if isinstance(t, Crypt):
        return (0, t.key, term_key(t.body))
    if isinstance(t, Decrypt):
        return (1, t.key, term_key(t.body))
    if isinstance(t, MPair):
        return (2, term_key(t.left), term_key(t.right))
    return (3, t.value)


# ---------------------------------------------------------------------------
# Rewriting to normal form

def _reduce_root(t: FreeMsg) -> FreeMsg | None:
    """Contract a cancellation redex at the root, if there is one."""
    if isinstance(t, Crypt) and isinstance(t.body, Decrypt) and t.key == t.body.key:
        return t.body.body
    if isinstance(t, Decrypt) and isinstance(t.body, Crypt) and t.key == t.body.key:
        return t.body.body
    return None


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


def is_normal(t: FreeMsg) -> bool:
    if _reduce_root(t) is not None:
        return False
    if isinstance(t, MPair):
        return is_normal(t.left) and is_normal(t.right)
    if isinstance(t, (Crypt, Decrypt)):
        return is_normal(t.body)
    return True


def msg_eq(u: FreeMsg, v: FreeMsg) -> bool:
    """Decide the message equivalence by comparing normal forms."""
    return normalize(u) == normalize(v)


# ---------------------------------------------------------------------------
# Functions on the free algebra

def freenonces(t: FreeMsg) -> frozenset[int]:
    """All nonces in a term; encryption and decryption are transparent."""
    if isinstance(t, Nonce):
        return frozenset((t.value,))
    if isinstance(t, MPair):
        return freenonces(t.left) | freenonces(t.right)
    return freenonces(t.body)


def freeleft(t: FreeMsg) -> FreeMsg:
    """Left part of the topmost pair, looking through crypt/decrypt."""
    if isinstance(t, Nonce):
        return t
    if isinstance(t, MPair):
        return t.left
    return freeleft(t.body)


def freeright(t: FreeMsg) -> FreeMsg:
    """Mirror image of `freeleft`."""
    if isinstance(t, Nonce):
        return t
    if isinstance(t, MPair):
        return t.right
    return freeright(t.body)


def freediscrim(t: FreeMsg) -> int:
    """Constructor discriminator: 0 for nonces, 1 for pairs, +2 per
    encryption, -2 per decryption.  Signed: cancelling wrappers must cancel
    exactly for this to respect the equivalence."""
    if isinstance(t, Nonce):
        return 0
    if isinstance(t, MPair):
        return 1
    if isinstance(t, Crypt):
        return freediscrim(t.body) + 2
    return freediscrim(t.body) - 2


def freediscrim_truncated(t: FreeMsg) -> int:
    """Deliberately broken variant: decryption subtracts in truncated
    natural arithmetic.  Does not respect the equivalence; kept as the
    standard negative test for the congruence checker."""
    if isinstance(t, Nonce):
        return 0
    if isinstance(t, MPair):
        return 1
    if isinstance(t, Crypt):
        return freediscrim_truncated(t.body) + 2
    return max(freediscrim_truncated(t.body) - 2, 0)


# ---------------------------------------------------------------------------
# Bounded term universe and the inductive-closure oracle

DEFAULT_KEYS = (0, 1)
DEFAULT_NONCES = (0, 1)
DEFAULT_MAX_TERMS = 500_000
SAMPLING_BOUND = 5  # universe bound backing the default msgrel pair generator


def _domains(keys, nonces) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(sorted(set(keys))), tuple(sorted(set(nonces)))


def universe_size(bound: int, keys=DEFAULT_KEYS, nonces=DEFAULT_NONCES) -> int:
    """Number of terms of size <= bound, by recurrence (no enumeration)."""
    keys, nonces = _domains(keys, nonces)
    counts = [0, len(nonces)]
    for s in range(2, bound + 1):
        mpairs = sum(counts[i] * counts[s - 1 - i] for i in range(1, s - 1))
        counts.append(mpairs + 2 * len(keys) * counts[s - 1])
    return sum(counts[1 : bound + 1])


@lru_cache(maxsize=32)
def _enumerate(bound: int, keys, nonces, max_terms: int) -> tuple[FreeMsg, ...]:
    if bound < 1:
        raise ValueError("bound must be >= 1")
    total = universe_size(bound, keys, nonces)
    if total > max_terms:
        raise UniverseTooLargeError(total, max_terms)
    by_size: list[list[FreeMsg]] = [[], [Nonce(n) for n in nonces]]
    for s in range(2, bound + 1):
        layer: list[FreeMsg] = []
        for i in range(1, s - 1):
            for l in by_size[i]:
                for r in by_size[s - 1 - i]:
                    layer.append(MPair(l, r))
        for k in keys:
            for b in by_size[s - 1]:
                layer.append(Crypt(k, b))
        for k in keys:
            for b in by_size[s - 1]:
                layer.append(Decrypt(k, b))
        by_size.append(layer)
    return tuple(itertools.chain.from_iterable(by_size[1 : bound + 1]))


def enumerate_terms(
    bound: int,
    keys=DEFAULT_KEYS,
    nonces=DEFAULT_NONCES,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> list[FreeMsg]:
    """All terms of size <= bound over the given key/nonce domains, graded
    by size.  Raises UniverseTooLargeError before enumerating anything that
    would blow the cap."""
    keys, nonces = _domains(keys, nonces)
    return list(_enumerate(bound, keys, nonces, max_terms))


@lru_cache(maxsize=16)
def _closure(bound: int, keys, nonces, max_terms: int):
    """Union-find least fixpoint of the eight rules over the bounded
    universe.

    Reflexivity, symmetry, and transitivity live in the union-find
    structure; the cancellation axioms are the seed unions; the constructor
    rules are applied by merging terms whose (constructor, class-of-parts)
    signatures collide, until nothing changes.  Agreement with the naive
    rule-by-rule iteration is itself a tested property.
    """
    terms = _enumerate(bound, keys, nonces, max_terms)
    index = {t: i for i, t in enumerate(terms)}
    n = len(terms)

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

    shapes = []
    for t in terms:
        if isinstance(t, Nonce):
            shapes.append((3, t.value, -1))
        elif isinstance(t, MPair):
            shapes.append((2, index[t.left], index[t.right]))
        elif isinstance(t, Crypt):
            shapes.append((0, t.key, index[t.body]))
        else:
            shapes.append((1, t.key, index[t.body]))

    for i, t in enumerate(terms):
        reduced = _reduce_root(t)
        if reduced is not None:
            union(i, index[reduced])

    changed = True
    while changed:
        changed = False
        seen: dict = {}
        for i in range(n):
            tag, a, b = shapes[i]
            if tag == 3:
                sig = (tag, a)
            elif tag == 2:
                sig = (tag, find(a), find(b))
            else:
                sig = (tag, a, find(b))
            j = seen.get(sig)
            if j is None:
                seen[sig] = i
            elif union(i, j):
                changed = True

    labels = {t: find(i) for i, t in enumerate(terms)}
    return terms, labels


def closure_classes(
    bound: int,
    keys=DEFAULT_KEYS,
    nonces=DEFAULT_NONCES,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> dict[FreeMsg, int]:
    """Map each universe term to a class label under the rule closure.

    Two terms are related by the closure exactly when their labels match;
    this is the membership view of `closure_oracle` without materializing
    the pair set."""
    keys, nonces = _domains(keys, nonces)
    _, labels = _closure(bound, keys, nonces, max_terms)
    return dict(labels)


def closure_oracle(
    bound: int,
    keys=DEFAULT_KEYS,
    nonces=DEFAULT_NONCES,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> set[tuple[FreeMsg, FreeMsg]]:
    """The least fixpoint of the eight rules, as an explicit pair set."""
    keys, nonces = _domains(keys, nonces)
    terms, labels = _closure(bound, keys, nonces, max_terms)
    groups: dict[int, list[FreeMsg]] = {}
    for t in terms:
        groups.setdefault(labels[t], []).append(t)
    pairs = set()
    for members in groups.values():
        for u in members:
            for v in members:
                pairs.add((u, v))
    return pairs


@lru_cache(maxsize=8)
def _sorted_pairs(bound: int, keys, nonces, max_terms: int):
    terms, labels = _closure(bound, keys, nonces, max_terms)
    groups: dict[int, list[FreeMsg]] = {}
    for t in terms:
        groups.setdefault(labels[t], []).append(t)
    pairs = [(u, v) for members in groups.values() for u in members for v in members]
    pairs.sort(key=lambda p: (size(p[0]) + size(p[1]), term_key(p[0]), term_key(p[1])))
    return tuple(pairs)


def msg_relation(
    bound: int = SAMPLING_BOUND,
    keys=DEFAULT_KEYS,
    nonces=DEFAULT_NONCES,
) -> EquivRelation[FreeMsg]:
    """The message equivalence as an executable relation.

    The decider is the rewriting route; the related-pair generator draws
    from the closure oracle over the configured universe, smallest pairs
    first, so the two routes keep each other honest wherever this relation
    feeds the congruence checker."""
    keys, nonces = _domains(keys, nonces)
    default = bound == SAMPLING_BOUND and keys == DEFAULT_KEYS and nonces == DEFAULT_NONCES
    name = "msgrel" if default else f"msgrel[bound={bound},keys={keys},nonces={nonces}]"

    def pairs(budget: int):
        return _sorted_pairs(bound, keys, nonces, DEFAULT_MAX_TERMS)[:budget]

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


def mpair_map() -> RespectMap:
    return RespectMap(MPair, (msgrel, msgrel), msg_eq, name="MPAIR")


def crypt_map(k: int) -> RespectMap:
    return RespectMap(lambda t: Crypt(k, t), (msgrel,), msg_eq, name=f"CRYPT {k}")


def decrypt_map(k: int) -> RespectMap:
    return RespectMap(lambda t: Decrypt(k, t), (msgrel,), msg_eq, name=f"DECRYPT {k}")


# ---------------------------------------------------------------------------
# The quotient type and its lifted operations

@dataclass(frozen=True)
class Msg:
    """A message modulo the cancellation equations, stored in normal form."""

    cls: EquivClass[FreeMsg]

    @property
    def rep(self) -> FreeMsg:
        return self.cls.representative

    def __repr__(self) -> str:
        return f"Msg({self.rep!r})"


def msg(t: FreeMsg) -> Msg:
    """The class of a free term."""
    return Msg(class_of(msgrel, t))


def nonce(n: int) -> Msg:
    # Injected directly: the argument is a number, not a class.
    return msg(Nonce(n))


def mpair(a: Msg, b: Msg) -> Msg:
    return msg(MPair(a.rep, b.rep))


def crypt(k: int, a: Msg) -> Msg:
    return msg(Crypt(k, a.rep))


def decrypt(k: int, a: Msg) -> Msg:
    return msg(Decrypt(k, a.rep))


def nonces(a: Msg) -> frozenset[int]:
    return freenonces(a.rep)


def left(a: Msg) -> Msg:
    return msg(freeleft(a.rep))


def right(a: Msg) -> Msg:
    return msg(freeright(a.rep))


def discrim(a: Msg) -> int:
    return freediscrim(a.rep)
