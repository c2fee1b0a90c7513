"""Executable equivalence relations, class values, and congruence checking.

A quotient construction here has three ingredients: an :class:`EquivRelation`
bundling a decision procedure with a carrier test and a related-pair
generator, :class:`EquivClass` values whose equality delegates to the
relation, and bounded congruence checks that certify (up to a budget) that a
candidate function is independent of the representative chosen from each
class.  A congruence report names the map it checked, and `lift(report)`
turns a certified report's map into a function on class values.

Nothing in this module proves anything: a ``certified`` verdict means "no
counterexample among the first `budget` generated cases", and every
``refuted`` verdict carries a counterexample that can be re-checked from
scratch.

The relations, maps, reports and class values here, and the message terms
and s-expression nodes elsewhere in the package, are :class:`Record` values:
plain classes that declare their fields as ``__slots__`` and set them in an
explicit ``__init__``.  The base makes them immutable (assigning or deleting
a field raises ``AttributeError``), gives them a ``Name(field=value, ...)``
repr over the fields, equality and hashing by type and field tuple, and a
``__reduce__`` that rebuilds through the constructor, so ``copy`` and
``pickle`` work.  A class that defines its own equality or hash keeps it.
A slot whose name starts with ``_`` is a cache, not a field: it stays out of
``_fields``, so the repr, equality, hash, copy and pickle never see it, and
assigning or deleting it raises like any field.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
import threading
from collections import Counter
from functools import partial
from typing import Callable, Generic, Iterable, Sequence, TypeVar

from .errors import DomainError, RelationMismatchError, UncertifiedLiftError

T = TypeVar("T")
D = TypeVar("D")


_set = object.__setattr__  # how a Record's __init__ sets its fields


class Record:
    """Base of the package's immutable records; see the module docstring.
    `_fields` are the slots of the class and its bases, bases first, less
    the underscore caches."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__", ())
        cls._fields = cls._fields + tuple(name for name in slots if not name.startswith("_"))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


class Verdict(str, enum.Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    NO_SAMPLES = "no-samples"

    def __str__(self) -> str:
        return self.value


class EquivRelation(Record, Generic[T]):
    """An executable equivalence relation on a carrier set.

    `decider` answers whether two carrier elements are related, `carrier`
    tests membership in the underlying set, and `related_pairs` produces, for
    a given budget, a deterministic finite sequence of related pairs used by
    the bounded checks; any callable will do.  `canonicalize`, when present,
    maps every element to the distinguished representative of its class.
    `carrier` and `canonicalize` are assumed deterministic: the checks ask
    each of them once per distinct sampled element.  So is a
    `RespectMap.function`, which `check_respects` asks once per row of
    images whose leading arguments repeat.
    The built-in relations' pairs come from a `PairStream`, kept per relation:
    `related_pairs(b)` is a prefix of `related_pairs(b')` for b <= b', and
    memory is bounded by the largest budget asked.  A relation whose
    `related_pairs` is a `PairStream` also keeps its sample of those pairs
    (an underscore cache, `_sample`): the distinct elements in first-seen
    order, each one's carrier verdict and canonical form, and whether each
    pair's two forms agree, so a repeated check pays only for its decider.
    Any other relation samples afresh on every call.
    """

    __slots__ = ("name", "decider", "carrier", "related_pairs", "canonicalize", "_sample")

    def __init__(self, name: str, decider: Callable[[T, T], bool], carrier: Callable[[T], bool],
                 related_pairs: Callable[[int], Sequence[tuple[T, T]]],
                 canonicalize: Callable[[T], T] | None = None) -> None:
        _set(self, "name", name)
        _set(self, "decider", decider)
        _set(self, "carrier", carrier)
        _set(self, "related_pairs", related_pairs)
        _set(self, "canonicalize", canonicalize)
        _set(self, "_sample", _Sample() if isinstance(related_pairs, PairStream) else None)

    def __repr__(self) -> str:
        return f"EquivRelation({self.name!r})"

    def same_as(self, other: "EquivRelation") -> bool:
        return self is other or (self.name == other.name and self.decider == other.decider)


class PairStream(Record, Generic[T]):
    """A `related_pairs` that generates each pair once per process.

    `tiers()` is called once and yields one tier per grade, smallest first;
    it may end.  A tier is the grade's pairs as two columns, the lists of
    their left and of their right elements, so no pair tuple is built until
    a request asks for it.  A call returns a new list of the first `budget`
    pairs; `columns(budget)` returns them as two new column lists, which
    the checks read.  The columns of the tiers reached so far are kept, and
    a request extends them under a lock only through the tier its budget
    ends in, so a request within them generates nothing.
    Nothing is dropped: memory is bounded by the largest budget asked.  A
    tier source that raises ends the stream: the request that met the
    exception raises it, and every later request past the kept pairs
    raises a `RuntimeError` chained from it, so a failed source never reads
    as an exhausted one.  A copy or pickle gives the same pairs, with
    nothing kept.  An
    `EquivRelation` over a stream keeps its sample of the pairs as well,
    since a budget's pairs are a prefix of any larger budget's; like the
    relation's `carrier` and `canonicalize`, a `RespectMap.function` checked
    over them is assumed deterministic.
    """

    __slots__ = ("tiers", "_tiers", "_lefts", "_rights", "_lock", "_failure")

    def __init__(self, tiers: Callable[[], Iterable[tuple[Sequence[T], Sequence[T]]]]) -> None:
        _set(self, "tiers", tiers)
        _set(self, "_tiers", iter(tiers()))
        _set(self, "_lefts", [])
        _set(self, "_rights", [])
        _set(self, "_lock", threading.Lock())
        _set(self, "_failure", None)  # what the tier source raised, if it did

    def __call__(self, budget: int) -> list[tuple[T, T]]:
        return list(zip(*self.columns(budget)))

    def columns(self, budget: int) -> tuple[list[T], list[T]]:
        """The first `budget` pairs as two new lists, of their left and of
        their right elements."""
        if budget < 0:
            raise ValueError("budget must be >= 0")
        lefts, rights = self._lefts, self._rights
        with self._lock:
            if len(lefts) < budget:
                if self._failure is not None:
                    raise RuntimeError(f"the tier source failed after {len(lefts)} pairs"
                                       ) from self._failure
                try:
                    for xs, ys in self._tiers:
                        lefts += xs
                        rights += ys
                        if len(lefts) >= budget:
                            break
                except BaseException as exc:
                    del lefts[len(rights):]  # a tier cut between its two columns
                    _set(self, "_failure", exc)
                    raise
            return lefts[:budget], rights[:budget]


_UNASKED = 2  # an element's carrier verdict until a check asks for it
_NO_FORM = object()  # a late form's own canonical form until a check asks for it


class _Sample:
    """What the checks draw from a relation's related pairs, grown with
    them.  A relation whose pairs come from a `PairStream` keeps one, as
    `EquivRelation._sample`; for any other relation each check builds one.

    `elems` are the distinct elements of the pairs placed so far, in
    first-seen order; `index` maps each to its position, and `inside` holds
    each one's carrier verdict (0, 1, or `_UNASKED`).  `new` has a byte per
    placed pair: how many elements it drew first.  Both sides of the first
    `verified` pairs lie in the carrier.  With a canonicalizer, `forms` are
    the canonical forms of the first elements and `agree` has one byte per
    pair: whether its two forms agree.  A form is held as the equal element
    where one is placed at or before the element it is the form of; any
    other is a late form, kept in `late` as [form, position of the first
    element with that form, the form's own form or `_NO_FORM`].
    Everything only grows, by appending, and under `lock`, so a smaller
    budget reads a prefix.
    """

    __slots__ = ("lock", "index", "elems", "inside", "new", "verified", "forms", "agree",
                 "late")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.index: dict = {}
        self.elems: list = []
        self.inside = bytearray()
        self.new = bytearray()
        self.verified = 0
        self.forms: list = []
        self.agree = bytearray()
        self.late: dict = {}

    def verify(self, rel: EquivRelation, xs: Sequence, ys: Sequence) -> tuple | None:
        """The generator-contract cases of `check_equivalence` on the pairs of
        `xs` and `ys`, in order: each pair's carrier test, then its decider.
        Returns the first failure as (checked, law, witness), else None.  The
        carrier is asked once per element, at the first pair that draws it;
        a pair verified before pays only for its decider."""
        related, carrier, index, inside = rel.decider, rel.carrier, self.index, self.inside
        kept = min(self.verified, len(xs))
        for checked, (x, y) in enumerate(zip(itertools.islice(xs, kept), ys), 1):
            if not related(x, y):
                return checked, "pair-generator-decider", (x, y)
        self.place(xs, ys)

        def carried(x) -> int:
            i = index[x]
            if inside[i] == _UNASKED:
                inside[i] = bool(carrier(x))
            return inside[i]

        for k in range(kept, len(xs)):
            x, y = xs[k], ys[k]
            if not (carried(x) and carried(y)):
                law = "pair-generator-carrier"
            elif not related(x, y):
                law = "pair-generator-decider"
            else:
                continue
            self.verified = k
            return k + 1, law, (x, y)
        self.verified = max(self.verified, len(xs))
        return None

    def place(self, xs: Sequence, ys: Sequence) -> int:
        """Place the elements of the pairs of `xs` and `ys` not placed yet;
        return how many distinct elements those pairs draw."""
        index, elems, inside, new = self.index, self.elems, self.inside, self.new
        for k in range(len(new), len(xs)):
            before = len(elems)
            for x in (xs[k], ys[k]):
                if x not in index:
                    index[x] = len(elems)
                    elems.append(x)
                    inside.append(_UNASKED)
            new.append(len(elems) - before)
        # sum(new[:len(xs)]), counted in C: a pair draws at most two.
        return new.count(1, 0, len(xs)) + 2 * new.count(2, 0, len(xs))

    def view(self, rel: EquivRelation, xs: Sequence, ys: Sequence):
        """The sample the pairs of `xs` and `ys` draw, as the checks read it:
        the distinct elements then the late forms they need, in first-seen
        order; with a canonicalizer, an iterator over those elements' forms
        (a late form's own form is asked as it is reached) and the agreement
        byte of each pair, else None for both.  Each element is canonicalized
        once, in first-seen order, when a view first reaches it."""
        drawn = self.place(xs, ys)
        elems = self.elems[:drawn]
        canon = rel.canonicalize
        if canon is None:
            return elems, None, None
        index, forms, agree = self.index, self.forms, self.agree
        for k in range(len(agree), len(xs)):
            x, y = xs[k], ys[k]
            i, j = index[x], index[y]
            if i == len(forms):
                forms.append(self._held(canon(x), i))
            if j == len(forms):
                forms.append(self._held(canon(y), j))
            agree.append(1 if forms[i] == forms[j] else 0)
        late = [entry for entry in self.late.values()
                if entry[1] < drawn and index.get(entry[0], drawn) >= drawn]
        own = map(partial(self._own_form, canon), late)
        return (elems + [entry[0] for entry in late], itertools.chain(forms[:drawn], own),
                agree[:len(xs)])

    def _held(self, c, p: int):
        """`c`, the form of element `p`, as the object kept for it."""
        k = self.index.get(c)
        if k is not None and k <= p:
            return self.elems[k]
        entry = self.late.get(c)
        if entry is None:
            entry = self.late[c] = [c if k is None else self.elems[k], p, _NO_FORM]
        return entry[0]

    def _own_form(self, canon: Callable, entry: list):
        if entry[2] is _NO_FORM:
            with self.lock:
                if entry[2] is _NO_FORM:
                    entry[2] = canon(entry[0])
        return entry[2]



class EquivClass(Record, Generic[T]):
    """One equivalence class, held as a single stored representative.

    Two class values of the same type over the same relation compare equal
    exactly when the relation's decider relates their representatives;
    values of different types are never equal.  When the relation has a
    canonicalizer the stored representative is canonical, so equality (and
    hashing) reduce to plain representative comparison.
    """

    __slots__ = ("representative", "relation")

    def __init__(self, representative: T, relation: EquivRelation[T]) -> None:
        _set(self, "representative", representative)
        _set(self, "relation", relation)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return class_eq(self, other)

    def __hash__(self) -> int:
        if self.relation.canonicalize is not None:
            return hash((self.relation.name, self.representative))
        # No canonical form: fall back to a per-relation constant so that
        # hashing stays consistent with decider-based equality.
        return hash(self.relation.name)

    def __repr__(self) -> str:
        return f"[{self.representative!r}]/{self.relation.name}"


class RespectMap(Record, Generic[D]):
    """A candidate function on representatives, with one source relation
    per argument and its target equality.

    `target_eq` is plain equality for functions into ordinary values, or a
    target relation's decider for functions back into (representatives of) a
    quotient.
    """

    __slots__ = ("function", "sources", "target_eq", "name")

    def __init__(self, function: Callable[..., D], sources: tuple[EquivRelation, ...],
                 target_eq: Callable[[D, D], bool], name: str = "") -> None:
        _set(self, "function", function)
        _set(self, "sources", sources)
        _set(self, "target_eq", target_eq)
        _set(self, "name", name)


class CongruenceReport(Record):
    """Outcome of a bounded congruence check of `map`.

    `checked` is the number of cases actually examined (the generator may
    exhaust before the requested budget).  A refuted report's counterexample
    re-validates independently: each source decider holds on its pair and
    the target equality fails on the images.  `map` is the `RespectMap` the
    check ran on; `check_respects` and `respects2_via_commutativity` set it,
    so `lift` and `revalidate_counterexample` need only the report.
    """

    __slots__ = ("verdict", "checked", "counterexample", "note", "map")

    def __init__(self, verdict: Verdict, checked: int, counterexample: tuple | None = None,
                 note: str | None = None, map: RespectMap | None = None) -> None:
        _set(self, "verdict", verdict)
        _set(self, "checked", checked)
        _set(self, "counterexample", counterexample)
        _set(self, "note", note)
        _set(self, "map", map)

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED


class EquivalenceReport(Record, Generic[T]):
    """Outcome of checking that a relation is an equivalence relation.

    On refutation, `law` names the violated property and `witness` is the
    offending tuple of elements.
    """

    __slots__ = ("verdict", "checked", "law", "witness")

    def __init__(self, verdict: Verdict, checked: int, law: str | None = None,
                 witness: tuple | None = None) -> None:
        _set(self, "verdict", verdict)
        _set(self, "checked", checked)
        _set(self, "law", law)
        _set(self, "witness", witness)

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED


def _law_cases(rel: EquivRelation[T], xs: Sequence[T], ys: Sequence[T], budget: int,
               elems: list, forms, agree):
    """The cases `check_equivalence` tests once the generator's contract
    holds on the pairs of `xs` and `ys`, in order: None for a case that
    holds, else the violated law and its witness.  `elems`, `forms` and
    `agree` are the sample's view of those pairs (`_Sample.view`)."""
    related = rel.decider
    for x in elems:
        yield None if related(x, x) else ("reflexivity", (x, x))
    for x, y in zip(xs, ys):
        yield None if related(y, x) else ("symmetry", (x, y))

    # Chain generated pairs through shared midpoints for transitivity.
    by_first: dict = {}
    for x, y in zip(xs, ys):
        by_first.setdefault(x, []).append(y)
    chains = ((x, y, z) for x, y in zip(xs, ys) for z in by_first.get(y, ()))
    for x, y, z in itertools.islice(chains, budget):
        yield None if related(x, z) else ("transitivity", (x, y, z))

    # Cross-sample a bounded cube of elements for laws the generator's own
    # pairs cannot expose (e.g. unrelated elements turning out related).
    # Only triples whose premises hold count as transitivity cases.
    cube = elems[: round(budget ** (1 / 3)) + 2]
    for a, b in itertools.islice(itertools.product(cube, repeat=2), budget):
        yield None if not related(a, b) or related(b, a) else ("symmetry", (a, b))
    for a, b, c in itertools.islice(itertools.product(cube, repeat=3), budget):
        if related(a, b) and related(b, c):
            yield None if related(a, c) else ("transitivity", (a, b, c))

    if forms is not None:
        for x, c in zip(elems, forms):
            yield None if related(x, c) else ("canonical-related", (x, c))
        for x, y, same in zip(xs, ys, agree):
            yield None if same else ("canonical-agreement", (x, y))


def check_equivalence(rel: EquivRelation[T], budget: int) -> EquivalenceReport[T]:
    """Test reflexivity, symmetry, and transitivity on sampled elements.

    Samples are the first `budget` related pairs of `rel`; the generator's own
    contract (emitted pairs are related and lie in the carrier) is checked
    first.  When a canonicalizer is present its laws are checked as well.
    Returns the first violation found, a no-samples verdict for a generator
    that gives no pairs, or certified-up-to-budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    xs, ys = _columns(rel, budget)
    if not xs:
        return EquivalenceReport(Verdict.NO_SAMPLES, 0)
    sample = rel._sample or _Sample()
    with sample.lock:
        failure = sample.verify(rel, xs, ys)
        if failure is not None:
            return EquivalenceReport(Verdict.REFUTED, *failure)
        elems, forms, agree = sample.view(rel, xs, ys)
    checked = len(xs)
    for checked, violation in enumerate(_law_cases(rel, xs, ys, budget, elems, forms, agree),
                                        checked + 1):
        if violation is not None:
            return EquivalenceReport(Verdict.REFUTED, checked, *violation)
    return EquivalenceReport(Verdict.CERTIFIED, checked)


def class_of(rel: EquivRelation[T], x: T, kind: type = EquivClass) -> EquivClass[T]:
    """The class of `x` as a `kind` value (EquivClass or a quotient's value
    type), stored canonically when the relation supports it."""
    if not rel.carrier(x):
        raise DomainError(f"{x!r} is not in the carrier of {rel.name}")
    rep = rel.canonicalize(x) if rel.canonicalize is not None else x
    return kind(rep, rel)


def class_eq(a: EquivClass[T], b: EquivClass[T]) -> bool:
    """Class equality: the relation's decider applied to representatives."""
    if not a.relation.same_as(b.relation):
        raise RelationMismatchError(
            f"cannot compare classes over {a.relation.name} and {b.relation.name}"
        )
    return a.relation.decider(a.representative, b.representative)


def check_respects(m: RespectMap[D], budget: int) -> CongruenceReport:
    """Check `target_eq(f(x1, ..., xn), f(y1, ..., yn))` over related pairs.

    Each source relation contributes related pairs (xi, yi): the first
    `budget` of them for one argument, `int(budget ** (1/n)) + 1` for n
    arguments.  Their product is scanned in row-major order up to `budget`
    cases; a map of no arguments has one case, the empty one.  A
    counterexample is the pair (x, y) for one argument and the tuple of
    per-argument pairs ((x1, y1), ..., (xn, yn)) otherwise.

    `m.function` is assumed deterministic: a row of cases whose leading
    arguments come back in a later row is asked once and its images reused.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = len(m.sources)
    side = budget if n <= 1 else int(budget ** (1 / n)) + 1
    columns = [_columns(rel, side) for rel in m.sources]
    checked, failed = _scan(m.function, m.target_eq, [xs for xs, _ in columns],
                            [ys for _, ys in columns], budget)
    if failed is not None:
        case = next(itertools.islice(itertools.product(*(zip(*c) for c in columns)), failed, None))
        return CongruenceReport(Verdict.REFUTED, checked, case[0] if n == 1 else case, map=m)
    if checked == 0:
        return CongruenceReport(Verdict.NO_SAMPLES, 0, map=m)
    return CongruenceReport(Verdict.CERTIFIED, checked, map=m)


def _columns(rel: EquivRelation[T], budget: int) -> tuple[Sequence[T], Sequence[T]]:
    """The first `budget` related pairs of `rel` as two columns."""
    if isinstance(rel.related_pairs, PairStream):
        return rel.related_pairs.columns(budget)
    return tuple(zip(*itertools.islice(rel.related_pairs(budget), budget))) or ((), ())


def _scan(f: Callable, eq: Callable, lefts: list, rights: list, limit: int,
          swapped: bool = False) -> tuple[int, int | None]:
    """Test `eq(f(*xs), f(*ys))` on the first `limit` cases of the row-major
    product of the per-argument columns `lefts`, and of `rights` at the
    same positions; return how many ran and the position of the first that
    failed, or None.  With `swapped`, the right side's last argument comes
    first: its images are `f(y, *lead)` for the row's leading arguments.
    Each case asks the left side, the right side, then `eq`, except that a
    row (the last column under fixed leading arguments) whose leading
    arguments come back within the limit keeps its images for the later
    rows, so those ask only the other side and `eq`."""
    if not lefts:  # no arguments: the one empty case
        return 1, None if eq(f(), f()) else 0
    width = len(lefts[-1])
    total = min(limit, width * math.prod(map(len, lefts[:-1])))
    height = -(-total // width) if total else 0  # the rows within the limit
    sides = []
    for cols, swap in ((lefts, False), (rights, swapped)):
        leads = list(itertools.islice(itertools.product(*cols[:-1]), height))
        try:
            kept = dict.fromkeys(lead for lead, k in Counter(leads).items() if k > 1)
        except TypeError:  # unhashable arguments: every row streams
            kept = ()
        sides.append(map(partial(_row, f, cols[-1], swap, kept), leads))
    verdicts = itertools.chain.from_iterable(map(partial(map, eq), *sides))
    failed = next(itertools.compress(itertools.count(),
                                     map(operator.not_, itertools.islice(verdicts, total))), None)
    return (total, None) if failed is None else (failed + 1, failed)


def _row(f: Callable, col: Sequence, swapped: bool, kept: dict, lead: tuple) -> Iterable:
    """The images of `f(*lead, x)`, or of `f(x, *lead)` when `swapped`,
    for x in `col`, streamed; for leading arguments in `kept`, asked as the
    first such row streams and kept."""
    if lead not in kept:
        return _images(f, col, swapped, lead)
    images, kept[lead] = itertools.tee(kept[lead] or _images(f, col, swapped, lead))
    return images


def _images(f: Callable, col: Sequence, swapped: bool, lead: tuple) -> Iterable:
    repeats = map(itertools.repeat, lead)
    return map(f, col, *repeats) if swapped else map(f, *repeats, col)


check_respects2 = check_respects  # kept: bench/ calls or patches this name


def respects2_via_commutativity(m: RespectMap[D], budget: int) -> CongruenceReport:
    """Certify a two-argument function via commutativity plus one argument.

    When `f` is commutative (up to the target equality) and respects the
    relation in its first argument, it respects it in both.  If the
    commutativity probe fails, this falls back to the full two-argument
    check on the rest of the budget and says so in the report's note.
    Requires a two-argument map whose source relations are the same
    relation.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if len(m.sources) != 2:
        raise TypeError(f"commutativity shortcut takes 2 arguments, got {len(m.sources)}")
    rel, other = m.sources
    if not rel.same_as(other):
        raise RelationMismatchError(
            f"commutativity shortcut needs one relation, got {rel.name} and {other.name}"
        )
    f = m.function
    side = int(budget ** 0.5) + 1
    xs, ys = _columns(rel, side)
    sample = rel._sample or _Sample()
    with sample.lock:
        elems = sample.view(rel, xs, ys)[0]
    if not elems:
        return CongruenceReport(Verdict.NO_SAMPLES, 0, map=m)

    k = len(elems)
    checked, failed = _scan(f, m.target_eq, [elems, elems], [elems, elems], max(1, budget // 2),
                            swapped=True)
    if failed is not None:
        a, b = elems[failed // k], elems[failed % k]
        rest = budget - checked
        full = check_respects(m, rest) if rest else CongruenceReport(Verdict.NO_SAMPLES, 0)
        note = f"not commutative at ({a!r}, {b!r}); ran the full two-argument check"
        return CongruenceReport(full.verdict, checked + full.checked, full.counterexample,
                                note, m)

    firsts, failed = _scan(f, m.target_eq, [xs, elems], [ys, elems], budget - checked)
    if failed is not None:
        c = elems[failed % k]
        return CongruenceReport(Verdict.REFUTED, checked + firsts,
                                ((xs[failed // k], ys[failed // k]), (c, c)), map=m)
    return CongruenceReport(Verdict.CERTIFIED, checked + firsts,
                            note="via commutativity and single-argument respect", map=m)


def operation(m: RespectMap[D], kind: type | None = None) -> Callable:
    """`m.function` on class values: the one path from a map on
    representatives to a function on classes.

    The result checks its arity and each argument's relation against
    `m.sources`, then applies `m.function` to the stored representatives.
    With `kind`, it returns the image as a `kind` class of the first source
    relation.  No certificate is consulted: `operation(m)` is the unchecked
    lift, and `lift(report)` returns `operation(report.map)` for a certified
    report.
    """
    f, sources, n = m.function, m.sources, len(m.sources)

    def apply(*classes: EquivClass):
        if len(classes) != n:
            raise TypeError(f"lifted function takes {n} arguments, got {len(classes)}")
        reps = []
        for a, rel in zip(classes, sources):
            if a.relation is not rel and not a.relation.same_as(rel):
                raise RelationMismatchError(f"lifted over {rel.name}, applied to {a.relation.name}")
            reps.append(a.representative)
        out = f(*reps)
        return out if kind is None else class_of(sources[0], out, kind)

    return apply


def lift(cert: CongruenceReport) -> Callable:
    """The map a certified report checked, on class values:
    `operation(cert.map)`.

    Raises `UncertifiedLiftError`, carrying `cert`, when `cert` is not a
    `CongruenceReport` (None included), is not certified, or names no map.
    An unchecked lift is `operation(m)`.
    """
    if cert is None:
        problem = "no congruence report"
    elif not isinstance(cert, CongruenceReport):
        problem = f"{type(cert).__name__} is not a congruence report"
    elif not cert.certified:
        problem = f"verdict {cert.verdict}"
        if cert.counterexample is not None:
            problem += f", counterexample {cert.counterexample!r}"
    elif cert.map is None:
        problem = "the report names no map"
    else:
        return operation(cert.map)
    raise UncertifiedLiftError(f"lift rejected: {problem}", report=cert)


def revalidate_counterexample(report: CongruenceReport) -> bool:
    """Re-check a refuted report from scratch against the map it names:
    False when it has no counterexample or no map."""
    m = report.map
    if report.counterexample is None or m is None:
        return False
    pairs = (report.counterexample,) if len(m.sources) == 1 else report.counterexample
    xs, ys = zip(*pairs)
    related = all(rel.decider(x, y) for rel, (x, y) in zip(m.sources, pairs))
    return related and not m.target_eq(m.function(*xs), m.function(*ys))
