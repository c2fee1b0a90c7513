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
import threading
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
    each of them once per distinct sampled element.  So are the `decider`,
    which `check_equivalence` asks once per cell of its cube of sampled
    elements, and a `RespectMap.function`, which the congruence checks ask
    once per distinct argument tuple of their cases (arguments that are
    equal, as dict keys, count as one; an unhashable argument counts as
    its own at each slot of the pairs).
    The built-in relations' pairs come from a `PairStream`, kept per relation:
    `related_pairs(b)` is a prefix of `related_pairs(b')` for b <= b', and
    memory is bounded by the largest budget asked.  A relation whose
    `related_pairs` is a `PairStream` also keeps its sample of those pairs
    (an underscore cache, `_sample`, made by its first check): the distinct
    elements in first-seen order, each pair's positions among them, each
    element's carrier verdict and canonical form, and whether each pair's
    two forms agree, so a repeated check pays only for its decider and maps;
    and the transitivity cases of the last budget checked, which a check at
    another budget replaces, so a repeated `check_equivalence` at the same
    budget pays only for its decider.  Any other relation samples afresh on
    every call.
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
        _set(self, "_sample", None)  # see runner.sample_of

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
    pairs; `columns(budget)` returns them as two new column lists.  The
    checks read the kept columns themselves, uncopied, through `_kept`.
    The columns of the tiers reached so far are kept, and a request
    extends them under a lock only through the tier its budget ends in, so
    a request within them generates nothing.
    Nothing is dropped: memory is bounded by the largest budget asked.  A
    tier source that raises ends the stream: the request that met the
    exception raises it, and every later request past the kept pairs
    raises a `RuntimeError` chained from it, so a failed source never reads
    as an exhausted one.  A copy or pickle gives the same pairs, with
    nothing kept.  An
    `EquivRelation` over a stream keeps its sample of the pairs as well,
    since a budget's pairs are a prefix of any larger budget's; like the
    relation's `carrier` and `canonicalize`, a `RespectMap.function` checked
    over them is assumed deterministic, and asked once per distinct
    argument tuple.
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
        lefts, rights, n = self._kept(budget)
        return lefts[:n], rights[:n]

    def _kept(self, budget: int) -> tuple[list[T], list[T], int]:
        """The kept columns themselves, extended as far as the first `budget`
        pairs, and how many pairs those are.  The caller reads only that
        many of each and changes neither."""
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
            return lefts, rights, min(budget, len(rights))


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
    from . import runner

    checked, violation = runner.equivalence(rel, budget)
    if violation is not None:
        return EquivalenceReport(Verdict.REFUTED, checked, *violation)
    if checked == 0:
        return EquivalenceReport(Verdict.NO_SAMPLES, 0)
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

    `m.function` is assumed deterministic: it is asked once per distinct
    argument tuple of the cases (a map of no arguments twice, for its one
    case), and `target_eq` once per case, in order.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    from . import runner

    checked, counterexample = runner.respects(m.function, m.target_eq, m.sources, budget)
    if counterexample is not None:
        return CongruenceReport(Verdict.REFUTED, checked, counterexample, map=m)
    if checked == 0:
        return CongruenceReport(Verdict.NO_SAMPLES, 0, map=m)
    return CongruenceReport(Verdict.CERTIFIED, checked, map=m)


check_respects2 = check_respects  # kept: bench/ calls or patches this name


def respects2_via_commutativity(m: RespectMap[D], budget: int) -> CongruenceReport:
    """Certify a two-argument function via commutativity plus one argument.

    When `f` is commutative (up to the target equality) and respects the
    relation in its first argument, it respects it in both.  If the
    commutativity probe fails, this falls back to the full two-argument
    check on the rest of the budget and says so in the report's note.  The
    probe takes at most half the budget, so a budget of 1, which leaves no
    respect case, runs the full check.  Requires a two-argument map whose
    source relations are the same relation.

    Like `check_respects`, this asks `m.function` once per distinct
    argument tuple: the probe and the first-argument cases read one table
    of f(a, b) over the sampled elements, in which the probe's f(a, b) and
    f(b, a) are two cells.
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
    if budget < 2:
        full = check_respects(m, budget)
        note = "budget too small for the shortcut; ran the full two-argument check"
        return CongruenceReport(full.verdict, full.checked, full.counterexample, note, m)
    from . import runner

    checked, probe_failure, counterexample = runner.commutativity(m.function, m.target_eq, rel,
                                                                  budget)
    if checked == 0:
        return CongruenceReport(Verdict.NO_SAMPLES, 0, map=m)
    if probe_failure is not None:
        a, b = probe_failure
        full = check_respects(m, budget - checked)
        note = f"not commutative at ({a!r}, {b!r}); ran the full two-argument check"
        return CongruenceReport(full.verdict, checked + full.checked, full.counterexample,
                                note, m)
    if counterexample is not None:
        return CongruenceReport(Verdict.REFUTED, checked, counterexample, map=m)
    return CongruenceReport(Verdict.CERTIFIED, checked,
                            note="via commutativity and single-argument respect", map=m)


def operation(m: RespectMap[D], kind: type | None = None) -> Callable:
    """`m.function` on class values: the one path from a map on
    representatives to a function on classes.

    The result checks its arity, that each argument is a class, and each
    argument's relation against `m.sources`, then applies `m.function` to
    the stored representatives.  With `kind`, it returns the image as a
    `kind` class of the first source relation.  The result names the map
    it applies as its `map` attribute.  No certificate is consulted:
    `operation(m)` is the unchecked lift, and `lift(report)` returns
    `operation(report.map)` for a certified report.
    """
    f, sources, n = m.function, m.sources, len(m.sources)

    def apply(*classes: EquivClass):
        if len(classes) != n:
            raise TypeError(f"lifted function takes {n} arguments, got {len(classes)}")
        reps = []
        try:
            for a, rel in zip(classes, sources):
                if a.relation is not rel and not a.relation.same_as(rel):
                    raise RelationMismatchError(
                        f"lifted over {rel.name}, applied to {a.relation.name}")
                reps.append(a.representative)
        except AttributeError:
            raise TypeError(f"lifted function takes classes, got {type(a).__name__}") from None
        out = f(*reps)
        return out if kind is None else class_of(sources[0], out, kind)

    apply.map = m
    return apply


def lift(cert: CongruenceReport) -> Callable:
    """The map a certified report checked, on class values:
    `operation(cert.map)`, so its `map` is the report's.

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
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    related = all(rel.decider(x, y) for rel, (x, y) in zip(m.sources, pairs))
    return related and not m.target_eq(m.function(*xs), m.function(*ys))
