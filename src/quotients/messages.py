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
  Each term's constructor stores its normal form in a private slot, `_nf`
  (see below), so `normalize` only reads it.
* `_universe` computes the least fixpoint of the eight rules over a
  bounded term universe, never consulting the rewriter, as each term's
  class root.  The universe is a list of shapes (constructor, key or
  value, child indices), and the closure works on those shapes alone: it
  builds and hashes no term, and its cancellation seeds are shape tests.
  It lists and closes one size per step, in one pass, as its caller asks.

Tests drive the two against each other: `msg_relation`, one kept relation
per universe, decides by rewriting and draws the congruence checker's
related pairs from the partition, smallest first, in size layers.  A
request lists, closes and groups the universe only up to the sizes its
layers reach, sorts each layer as it reaches it, and builds only the terms
of the pairs it emits, with their subterms.  A `Msg` is a class of the
relation decided by rewriting, and its operations are the free functions'
respect maps applied to classes by `equiv.operation`.

A node's normal form is its children's normal forms under one root check,
so each constructor sets `_nf` from its parts' slots: `True` if the node
is already normal, else its normal form, which is marked `True` in turn.
A normal node is not marked with itself, since a self-reference would be a
cycle that keeps every term alive until the cyclic collector runs; and a
stored normal form is built from the term's subterms and new nodes, never
from the term itself, so it cannot close a cycle either.  The slot is not a
field: repr, equality, hashing, copy and pickle ignore it (see
`equiv.Record`).
"""

from __future__ import annotations

import bisect
import operator
from collections import Counter
from functools import lru_cache, partial

from .equiv import EquivClass, EquivRelation, PairStream, Record, RespectMap, class_of, operation
from .errors import UniverseTooLargeError


_set = object.__setattr__  # how a Record's __init__ sets its fields


class FreeMsg(Record):
    """Base of the free message terms.  `_nf` holds the term's normal form,
    set by its constructor (see the module docstring); `_hash` holds its
    hash once asked for.  Equality, hashing and repr walk explicit stacks,
    so term depth is bounded by memory, not by recursion."""

    __slots__ = ("_nf", "_hash")

    def __eq__(self, other):
        # Structural equality, walked with an explicit stack so that term
        # depth is not bounded by recursion.
        if type(other) is not type(self):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            u, v = stack.pop()
            if u is v:
                continue
            if type(u) is not type(v) or not isinstance(u, FreeMsg):
                if u != v:
                    return False
            elif type(u) is MPair:
                stack += ((u.right, v.right), (u.left, v.left))
            elif type(u) is Nonce:
                if u.value != v.value:
                    return False
            elif u.key != v.key:
                return False
            else:
                stack.append((u.body, v.body))
        return True

    def __hash__(self) -> int:
        # hash((tag, *fields)) with the constructor's tag (0 crypt, 1 decrypt,
        # 2 mpair, 3 nonce, as in the universe's shapes), so Crypt(k, x) and
        # Decrypt(k, x) differ in hash too.  Stored on first use, not at
        # construction (most terms are never hashed); the nodes without one
        # are hashed post-order, so the tuple hash reads stored hashes only.
        h = getattr(self, "_hash", None)
        if h is not None:
            return h
        stack = [self]
        while stack:
            t = stack[-1]
            fields = ((t.left, t.right) if type(t) is MPair else (t.value,) if type(t) is Nonce
                      else (t.key, t.body))
            ready = True
            for f in fields:
                if isinstance(f, FreeMsg) and not hasattr(f, "_hash"):
                    stack.append(f)
                    ready = False
            if ready:
                stack.pop()
                _set_hash(t, hash((t._tag, *fields)))
        return self._hash

    def __repr__(self) -> str:
        # Record's repr: the stack holds terms still to print and the text
        # already made for everything else.
        out, stack = [], [self]
        while stack:
            t = stack.pop()
            if not isinstance(t, FreeMsg):
                out.append(t)
                continue
            items = [f"{type(t).__qualname__}("]
            for k, name in enumerate(t._fields):
                value = getattr(t, name)
                items += (f"{', ' if k else ''}{name}=",
                          value if isinstance(value, FreeMsg) else repr(value))
            items.append(")")
            stack += reversed(items)
        return "".join(out)


_set_nf = FreeMsg._nf.__set__  # how the constructors set the normal-form slot
_set_hash = FreeMsg._hash.__set__  # and the hash slot, on first hash


# Equality, hashing and repr are FreeMsg's; the rest (immutability, copy and
# pickle) is Record's.  A part that is not a term (the carrier tests build
# such terms) has no `_nf` and counts as normal.
class Nonce(FreeMsg):
    __slots__ = ("value",)
    _tag = 3

    def __init__(self, value: int) -> None:
        _set(self, "value", value)
        _set_nf(self, True)


class MPair(FreeMsg):
    __slots__ = ("left", "right")
    _tag = 2

    def __init__(self, left: FreeMsg, right: FreeMsg) -> None:
        _set(self, "left", left)
        _set(self, "right", right)
        try:
            left_nf = left._nf
        except AttributeError:
            left_nf = True
        try:
            right_nf = right._nf
        except AttributeError:
            right_nf = True
        if left_nf is True and right_nf is True:
            _set_nf(self, True)
        else:
            _set_nf(self, MPair(left if left_nf is True else left_nf,
                                right if right_nf is True else right_nf))


class _Wrapper(FreeMsg):
    """Crypt and Decrypt: a key and a body.  Each subclass names its hash
    tag and its inverse, the wrapper that cancels it under the same key."""

    __slots__ = ("key", "body")

    def __init__(self, key: int, body: FreeMsg) -> None:
        _set(self, "key", key)
        _set(self, "body", body)
        try:
            nf = body._nf
        except AttributeError:
            nf = True
        if nf is True:
            nf = body
        if type(nf) is self._inverse and nf.key == key:
            _set_nf(self, nf.body)  # normal, as a part of a normal form
        else:
            _set_nf(self, True if nf is body else type(self)(key, nf))


class Crypt(_Wrapper):
    __slots__ = ()
    _tag = 0


class Decrypt(_Wrapper):
    __slots__ = ()
    _tag = 1


Crypt._inverse, Decrypt._inverse = Decrypt, Crypt


def well_formed(t) -> bool:
    """Membership in the carrier: a finite term whose nonces and keys are
    naturals (ints, not bools, which would print as names).  Pairs are
    walked with an explicit stack and wrapper chains with a loop, so term
    depth is not bounded by recursion."""
    stack = [t]
    while stack:
        t = stack.pop()
        while isinstance(t, _Wrapper):
            if type(t.key) is not int or t.key < 0:
                return False
            t = t.body
        if isinstance(t, MPair):
            stack += (t.right, t.left)
        elif not isinstance(t, Nonce) or type(t.value) is not int or t.value < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Rewriting to normal form

def normalize(t: FreeMsg) -> FreeMsg:
    """Innermost reduction to the unique redex-free form, as stored in the
    term's `_nf` slot by its constructor: children are normalized first,
    then a root redex contracts to an already-normal subterm.  A term that
    is already normal is returned itself."""
    nf = t._nf
    return t if nf is True else nf


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
_DEFAULT_UNIVERSE = (SAMPLING_BOUND, DEFAULT_KEYS, DEFAULT_NONCES)  # msgrel's


def _domains(keys, nonces) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(sorted(set(keys))), tuple(sorted(set(nonces)))


def _running_sizes(bound: int, keys, nonces):
    """Number of terms of size <= s for s = 1, ..., bound, by recurrence."""
    counts = [0]
    for s in range(1, bound + 1):
        mpairs = sum(counts[i] * counts[s - 1 - i] for i in range(1, s - 1))
        counts.append(mpairs + 2 * len(keys) * counts[s - 1] if s > 1 else len(nonces))
        yield sum(counts)


def _check_universe(bound: int, keys, nonces) -> None:
    """Raise for a bound below 1 or a universe over MAX_TERMS, by recurrence."""
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


def _enumerate(shapes: list[tuple[int, ...]], starts: list[int], keys, nonces) -> None:
    """Append the universe's next size to `shapes`, as shapes, and its end
    to `starts`, which begins as [0]; no term is built.  `shapes[i]` is
    term i's constructor: `(tag, key, body)` with tag 0 for crypt and 1 for
    decrypt, `(2, left, right)` for mpair or `(3, value)` for nonce,
    children by index, each before its parent.  Terms of size s are the
    indices `starts[s - 1]:starts[s]`."""
    s = len(starts)
    if s == 1:
        shapes += [(3, n) for n in nonces]
    else:
        for i in range(1, s - 1):
            shapes += [(2, l, r) for l in range(starts[i - 1], starts[i])
                       for r in range(starts[s - 2 - i], starts[s - 1 - i])]
        for tag in (0, 1):
            shapes += [(tag, k, b) for k in keys for b in range(starts[s - 2], starts[s - 1])]
    starts.append(len(shapes))


def _build(shapes, terms: list, indices) -> None:
    """Build term i of the universe from its shape into `terms[i]` for each
    i in `indices`, ascending, in one forward pass.  `terms` holds the
    terms built so far by index (None for the rest); every child precedes
    its parent, so it must be built already or come earlier in `indices`.
    Each term is built once and shared by every term that contains it."""
    for i in indices:
        shape = shapes[i]
        tag = shape[0]
        if tag == 3:
            terms[i] = Nonce(shape[1])
        elif tag == 2:
            terms[i] = MPair(terms[shape[1]], terms[shape[2]])
        elif tag == 0:
            terms[i] = Crypt(shape[1], terms[shape[2]])
        else:
            terms[i] = Decrypt(shape[1], terms[shape[2]])


def _closure(shapes, parent: list[int], seen: dict, stop: int) -> None:
    """Extend the union-find least fixpoint of the eight rules from the
    terms `shapes[:len(parent)]` to `shapes[:stop]`, in place: `parent[i]`
    is the root (least index) of term i's class, and `seen` maps each
    signature, a constructor with its parts' roots, to its first term.

    The closure works on shapes alone.  Reflexivity, symmetry and
    transitivity live in the union-find; the cancellation axioms are seed
    unions, found by a shape test (a crypt or decrypt whose body has the
    opposite tag and the same key joins its grandchild); the constructor
    rules merge terms whose signatures collide.  One pass in index order,
    children first, applies both to each new term.  A union that adds the
    new term, still alone, to an older class leaves every recorded
    signature valid, since no older term has it as a part, so a pass made
    only of such unions is the least fixpoint, with no appeal to
    confluence.  A union of two older classes raises instead of running a
    signature loop, so no partition that may not be closed is returned; in
    size order none occurs, as the cancellation rules' critical pairs meet.
    In size order a class's root is also its only member of its size, by
    induction on size: a term joins an older class by a seed, whose
    grandchild is smaller, or by a signature, whose first term is the one
    over its parts' roots, smaller than every other term that has it.
    """
    for i in range(len(parent), stop):
        shape = shapes[i]
        tag = shape[0]
        root = i
        if tag == 3:
            sig = shape
        elif tag == 2:
            sig = (tag, parent[shape[1]], parent[shape[2]])
        else:
            sig = (tag, shape[1], parent[shape[2]])
            body = shapes[shape[2]]
            if body[0] == 1 - tag and body[1] == shape[1]:
                root = parent[body[2]]
        j = seen.setdefault(sig, i)
        if j != i:
            if root == i:
                root = parent[j]
            elif root != parent[j]:
                raise RuntimeError(f"term {i} merges two older classes; the one-pass closure needs size order")
        parent.append(root)


def _universe(bound: int, keys, nonces):
    """The universe of terms of size <= bound and its closure, one size per
    step: `_enumerate` lists it, `_closure` closes it, and the step yields
    `(shapes, starts, parent)`, lists that grow in place.  A bad bound or a
    universe over MAX_TERMS raises at the first step."""
    _check_universe(bound, keys, nonces)
    shapes, starts, parent, seen = [], [0], [], {}
    for _ in range(bound):
        _enumerate(shapes, starts, keys, nonces)
        _closure(shapes, parent, seen, starts[-1])
        yield shapes, starts, parent


def class_sizes(bound: int, keys=DEFAULT_KEYS, nonces=DEFAULT_NONCES) -> list[int]:
    """The sizes of the closure's classes, in the order of their first
    members, read off its roots without building a term."""
    for _, _, parent in _universe(bound, *_domains(keys, nonces)):
        pass
    return list(Counter(parent).values())


def _layers(bound: int, keys, nonces):
    """The tier source of a universe's `PairStream`: its related pairs,
    smallest first, by total size, then by the sort key of each side.  A
    term's sort key is its shape with each child index replaced by the
    child's sort key, so terms order by tag (crypt, decrypt, mpair, nonce),
    then key or value, then parts.

    Layer s pairs terms of size at most s - 1, so it first draws size
    c = s - 1 from `_universe`, listed and closed, builds its sort keys and
    files what it adds to later layers: a class's root, its one member of
    its size (`_closure`), its reflexive pair to layer 2c; the class's other
    members `new` of size c, the blocks (us, new) and (new, us) to layer
    a + c for each older size group (a, us) of the class, and (new, new) to
    layer 2c.  Sizes no request reaches are never listed or closed, and
    only the sides of emitted pairs and their subterms are built, each
    once."""
    universe = _universe(bound, keys, nonces)
    terms: list = []  # by index, None until built
    sort_keys: list[tuple] = []
    groups: dict[int, list] = {}  # root -> its (size, members) groups, if not alone
    reflexive: dict[int, list[int]] = {}  # layer -> class roots
    blocks: dict[int, list] = {}  # layer -> (us, vs) blocks
    for s in range(2, 2 * bound + 1):
        c = s - 1
        if c <= bound:
            shapes, starts, parent = next(universe)
            lo, hi = starts[c - 1], starts[c]
            terms += [None] * (hi - lo)
            for shape in shapes[lo:hi]:
                tag, a = shape[0], shape[1]
                if tag == 3:
                    sort_keys.append(shape)
                elif tag == 2:
                    sort_keys.append((tag, sort_keys[a], sort_keys[shape[2]]))
                else:
                    sort_keys.append((tag, a, sort_keys[shape[2]]))
            joined: dict[int, list[int]] = {}
            for i in range(lo, hi):
                if parent[i] != i:
                    joined.setdefault(parent[i], []).append(i)
            reflexive[2 * c] = [i for i in range(lo, hi) if parent[i] == i]
            for root, new in joined.items():  # each root is of an older size
                old = groups.get(root) or [(bisect.bisect_right(starts, root), [root])]
                for a, us in old:
                    blocks.setdefault(a + c, []).extend(((us, new), (new, us)))
                blocks.setdefault(2 * c, []).append((new, new))
                groups[root] = [*old, (c, new)]
        yield _sorted_pairs(shapes, terms, sort_keys, reflexive.pop(s, ()), blocks.pop(s, ()))


def _sorted_pairs(shapes, terms: list, sort_keys: list, reflexive, blocks) -> tuple[list, list]:
    """A layer as its two columns: the pairs (i, i) of `reflexive` and those
    of each (us, vs) block of `blocks`, sorted by their sides' sort keys,
    with the unbuilt sides and subterms built into `terms`.  A module
    function, looked up per layer, so that a tracer can wrap it."""
    layer = [(i, i) for i in reflexive]
    layer += [(u, v) for us, vs in blocks for u in us for v in vs]
    layer.sort(key=lambda p: (sort_keys[p[0]], sort_keys[p[1]]))
    new, stack = set(), [i for pair in layer for i in pair]
    while stack:  # the unbuilt sides and subterms
        i = stack.pop()
        if terms[i] is None and i not in new:
            new.add(i)
            shape = shapes[i]
            stack += shape[1:] if shape[0] == 2 else shape[2:]
    _build(shapes, terms, sorted(new))
    return [terms[u] for u, _ in layer], [terms[v] for _, v in layer]


def msg_relation(
    bound: int = SAMPLING_BOUND,
    keys=DEFAULT_KEYS,
    nonces=DEFAULT_NONCES,
) -> EquivRelation[FreeMsg]:
    """The message equivalence as an executable relation, one per universe.

    The decider is the rewriting route; the related-pair generator draws
    from the closure oracle over the configured universe, so the two routes
    keep each other honest wherever this relation feeds the congruence
    checker.  Pairs come smallest first, by total size and then by each
    side's constructor (crypt, decrypt, mpair, nonce), key or value, and
    parts, from a `PairStream` whose tiers are size layers, each paid once.
    Domains are normalized first, so `msg_relation(6, [1, 0, 1])` is
    `msg_relation(6)`; the default universe is always `msgrel`, and the
    last eight others are cached.  A bad bound or a universe over
    `MAX_TERMS` raises here, before anything is listed."""
    universe = (bound, *_domains(keys, nonces))
    return msgrel if universe == _DEFAULT_UNIVERSE else _msg_relation(*universe)


@lru_cache(maxsize=8)
def _msg_relation(bound: int, keys, nonces) -> EquivRelation[FreeMsg]:
    # Nothing the stream's layers hold refers back to it: no cycle keeps an evicted universe.
    _check_universe(bound, keys, nonces)
    default = (bound, keys, nonces) == _DEFAULT_UNIVERSE
    name = "msgrel" if default else f"msgrel[bound={bound},keys={keys},nonces={nonces}]"
    return EquivRelation(
        name=name,
        decider=msg_eq,
        carrier=well_formed,
        related_pairs=PairStream(partial(_layers, bound, keys, nonces)),
        canonicalize=normalize,
    )


msgrel: EquivRelation[FreeMsg] = _msg_relation.__wrapped__(*_DEFAULT_UNIVERSE)


def free_maps(rel: EquivRelation[FreeMsg]) -> dict[str, RespectMap]:
    """The one declaration of the message functions: their respect maps over
    `rel`, keyed by `msg-fn` name, in `check msg-congruence` order."""
    return {
        name: RespectMap(fn, (rel,), target_eq, name=fn.__name__)
        for name, fn, target_eq in (
            ("nonces", freenonces, operator.eq),
            ("left", freeleft, msg_eq),
            ("right", freeright, msg_eq),
            ("discrim", freediscrim, operator.eq),
        )
    }


def truncated_discrim_map(rel: EquivRelation[FreeMsg]) -> RespectMap:
    """The negative test: `freediscrim_truncated` does not respect `rel`."""
    return RespectMap(freediscrim_truncated, (rel,), operator.eq, name="freediscrim_truncated")


FREE_MAPS = free_maps(msgrel)
FREENONCES_MAP, FREELEFT_MAP, FREERIGHT_MAP, FREEDISCRIM_MAP = FREE_MAPS.values()
FREEDISCRIM_TRUNCATED_MAP = truncated_discrim_map(msgrel)


MPAIR_MAP = RespectMap(MPair, (msgrel, msgrel), msg_eq, name="MPAIR")


def crypt_map(k: int) -> RespectMap:
    return RespectMap(lambda t: Crypt(k, t), (msgrel,), msg_eq, name=f"CRYPT {k}")


def decrypt_map(k: int) -> RespectMap:
    return RespectMap(lambda t: Decrypt(k, t), (msgrel,), msg_eq, name=f"DECRYPT {k}")


# ---------------------------------------------------------------------------
# The quotient type and its lifted operations

class Msg(EquivClass[FreeMsg]):
    """A message modulo the cancellation equations, stored in normal form."""

    __slots__ = ()

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
@lru_cache(maxsize=256, typed=True)
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
