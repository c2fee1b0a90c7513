"""Executable equivalence relations, class values, and congruence checking.

A quotient construction here has three ingredients: an :class:`EquivRelation`
bundling a decision procedure with a carrier test and a related-pair
generator, :class:`EquivClass` values whose equality delegates to the
relation, and bounded congruence checks that certify (up to a budget) that a
candidate function is independent of the representative chosen from each
class.  Certified functions can then be lifted to operate on class values.

Nothing in this module proves anything: a ``certified`` verdict means "no
counterexample among the first `budget` generated cases", and every
``refuted`` verdict carries a counterexample that can be re-checked from
scratch.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterable, Sequence, TypeVar

from .errors import DomainError, RelationMismatchError, UncertifiedLiftError

T = TypeVar("T")
D = TypeVar("D")


class Verdict(str, enum.Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    NO_SAMPLES = "no-samples"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class EquivRelation(Generic[T]):
    """An executable equivalence relation on a carrier set.

    `decider` answers whether two carrier elements are related, `carrier`
    tests membership in the underlying set, and `related_pairs` produces, for
    a given budget, a deterministic finite sequence of related pairs used by
    the bounded checks.  `canonicalize`, when present, maps every element to
    the distinguished representative of its class.
    """

    name: str
    decider: Callable[[T, T], bool]
    carrier: Callable[[T], bool]
    related_pairs: Callable[[int], Sequence[tuple[T, T]]]
    canonicalize: Callable[[T], T] | None = None

    def __repr__(self) -> str:
        return f"EquivRelation({self.name!r})"

    def same_as(self, other: "EquivRelation") -> bool:
        return self is other or (self.name == other.name and self.decider == other.decider)


@dataclass(frozen=True)
class EquivClass(Generic[T]):
    """One equivalence class, held as a single stored representative.

    Two class values of the same type over the same relation compare equal
    exactly when the relation's decider relates their representatives;
    values of different types are never equal.  When the relation has a
    canonicalizer the stored representative is canonical, so equality (and
    hashing) reduce to plain representative comparison.
    """

    representative: T
    relation: EquivRelation[T] = field(repr=False)

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


@dataclass(frozen=True)
class RespectMap(Generic[D]):
    """A candidate function on representatives, with one source relation
    per argument and its target equality.

    `target_eq` is plain equality for functions into ordinary values, or a
    target relation's decider for functions back into (representatives of) a
    quotient.
    """

    function: Callable[..., D]
    sources: tuple[EquivRelation, ...]
    target_eq: Callable[[D, D], bool]
    name: str = ""


@dataclass(frozen=True)
class CongruenceReport:
    """Outcome of a bounded congruence check.

    `checked` is the number of cases actually examined (the generator may
    exhaust before the requested budget).  A refuted report's counterexample
    re-validates independently: each source decider holds on its pair and
    the target equality fails on the images.
    """

    verdict: Verdict
    checked: int
    counterexample: tuple | None = None
    note: str | None = None

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED


@dataclass(frozen=True)
class EquivalenceReport(Generic[T]):
    """Outcome of checking that a relation is an equivalence relation.

    On refutation, `law` names the violated property and `witness` is the
    offending tuple of elements.
    """

    verdict: Verdict
    checked: int
    law: str | None = None
    witness: tuple | None = None

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED


def _sample_elements(rel: EquivRelation[T], pairs: Iterable[tuple[T, T]]) -> list[T]:
    """Distinct carrier elements drawn from generated pairs, in first-seen
    order, followed by their canonical forms (which are fixpoints)."""
    seen: dict = {}
    for x, y in pairs:
        seen.setdefault(x, None)
        seen.setdefault(y, None)
    if rel.canonicalize is not None:
        for x in list(seen):
            seen.setdefault(rel.canonicalize(x), None)
    return list(seen)


def _law_cases(rel: EquivRelation[T], pairs: list[tuple[T, T]], budget: int):
    """The cases `check_equivalence` tests, in order: None for a case that
    holds, else the violated law and its witness.  The caller stops at the
    first violation, so the decider never sees a pair outside the carrier."""
    related, carrier = rel.decider, rel.carrier
    for x, y in pairs:
        if not (carrier(x) and carrier(y)):
            yield "pair-generator-carrier", (x, y)
        yield None if related(x, y) else ("pair-generator-decider", (x, y))

    elems = _sample_elements(rel, pairs)
    for x in elems:
        yield None if related(x, x) else ("reflexivity", (x, x))
    for x, y in pairs:
        yield None if related(y, x) else ("symmetry", (x, y))

    # Chain generated pairs through shared midpoints for transitivity.
    by_first: dict = {}
    for x, y in pairs:
        by_first.setdefault(x, []).append(y)
    chains = ((x, y, z) for x, y in pairs for z in by_first.get(y, ()))
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

    canon = rel.canonicalize
    if canon is not None:
        for x in elems:
            yield None if related(x, canon(x)) else ("canonical-related", (x, canon(x)))
        for x, y in pairs:
            yield None if canon(x) == canon(y) else ("canonical-agreement", (x, y))


def check_equivalence(rel: EquivRelation[T], budget: int) -> EquivalenceReport[T]:
    """Test reflexivity, symmetry, and transitivity on sampled elements.

    Samples come from `rel.related_pairs(budget)`; the generator's own
    contract (emitted pairs are related and lie in the carrier) is checked
    first.  When a canonicalizer is present its laws are checked as well.
    Returns the first violation found, a no-samples verdict for a generator
    that gives no pairs, or certified-up-to-budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    pairs = list(itertools.islice(rel.related_pairs(budget), budget))
    if not pairs:
        return EquivalenceReport(Verdict.NO_SAMPLES, 0)
    checked = 0
    for checked, violation in enumerate(_law_cases(rel, pairs, budget), 1):
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
    cases.  A counterexample is the pair (x, y) for one argument and the
    tuple of per-argument pairs ((x1, y1), ..., (xn, yn)) otherwise.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = len(m.sources)
    side = budget if n == 1 else int(budget ** (1 / n)) + 1
    per_source = [list(itertools.islice(rel.related_pairs(side), side)) for rel in m.sources]
    lefts = itertools.product(*[[x for x, _ in pairs] for pairs in per_source])
    rights = itertools.product(*[[y for _, y in pairs] for pairs in per_source])
    f = m.function
    verdicts = map(m.target_eq, itertools.starmap(f, lefts), itertools.starmap(f, rights))
    checked = 0
    for ok in itertools.islice(verdicts, budget):
        checked += 1
        if not ok:
            # The failing case, recovered by its row-major position.
            case = next(itertools.islice(itertools.product(*per_source), checked - 1, None))
            return CongruenceReport(Verdict.REFUTED, checked, case[0] if n == 1 else case)
    if checked == 0:
        return CongruenceReport(Verdict.NO_SAMPLES, 0)
    return CongruenceReport(Verdict.CERTIFIED, checked)


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
    rel, other = m.sources
    if not rel.same_as(other):
        raise RelationMismatchError(
            f"commutativity shortcut needs one relation, got {rel.name} and {other.name}"
        )
    f = m.function
    side = int(budget ** 0.5) + 1
    pairs = list(itertools.islice(rel.related_pairs(side), side))
    elems = _sample_elements(rel, pairs)
    if not elems:
        return CongruenceReport(Verdict.NO_SAMPLES, 0)

    checked = 0
    swaps = itertools.islice(itertools.product(elems, repeat=2), max(1, budget // 2))
    for checked, (a, b) in enumerate(swaps, 1):
        if not m.target_eq(f(a, b), f(b, a)):
            rest = budget - checked
            full = check_respects(m, rest) if rest else CongruenceReport(Verdict.NO_SAMPLES, 0)
            note = f"not commutative at ({a!r}, {b!r}); ran the full two-argument check"
            return CongruenceReport(full.verdict, checked + full.checked, full.counterexample, note)

    firsts = itertools.islice(((x, y, c) for x, y in pairs for c in elems), budget - checked)
    for checked, (x, y, c) in enumerate(firsts, checked + 1):
        if not m.target_eq(f(x, c), f(y, c)):
            return CongruenceReport(Verdict.REFUTED, checked, ((x, y), (c, c)))
    return CongruenceReport(
        Verdict.CERTIFIED, checked, note="via commutativity and single-argument respect"
    )


@dataclass(frozen=True)
class LiftedFunction(Generic[D]):
    """A function on class values, obtained by applying the underlying map
    to the stored representatives.

    `checked` records whether a certified congruence report backed the lift;
    unchecked lifts are permitted only when explicitly requested and stay
    flagged here.
    """

    map: RespectMap[D]
    certificate: CongruenceReport | None
    checked: bool

    def __call__(self, *classes: EquivClass) -> D:
        return operation(self.map)(*classes)


def operation(m: RespectMap[D], kind: type | None = None) -> Callable:
    """`m.function` on class values: the one path from a map on
    representatives to a function on classes.

    The result checks its arity and each argument's relation against
    `m.sources`, then applies `m.function` to the stored representatives.
    With `kind`, it returns the image as a `kind` class of the first source
    relation.  No certificate is consulted on a call; `lift` attaches one.
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


def lift(
    cert: CongruenceReport | None,
    m: RespectMap[D],
    strict: bool = True,
) -> LiftedFunction[D]:
    """Lift a map to class values.

    In strict mode (the default) a certified report is required; a refuted
    or missing one raises, carrying the counterexample.  Passing
    ``strict=False`` permits the lift anyway, flagged as unchecked.
    """
    certified = cert is not None and cert.certified
    if strict and not certified:
        detail = "no certificate" if cert is None else f"verdict {cert.verdict}"
        if cert is not None and cert.counterexample is not None:
            detail += f", counterexample {cert.counterexample!r}"
        raise UncertifiedLiftError(f"strict lift rejected: {detail}", report=cert)
    return LiftedFunction(m, cert, certified)


def revalidate_counterexample(m: RespectMap[D], report: CongruenceReport) -> bool:
    """Re-check a refuted report from scratch."""
    if report.counterexample is None:
        return False
    pairs = (report.counterexample,) if len(m.sources) == 1 else report.counterexample
    xs, ys = zip(*pairs)
    related = all(rel.decider(x, y) for rel, (x, y) in zip(m.sources, pairs))
    return related and not m.target_eq(m.function(*xs), m.function(*ys))
