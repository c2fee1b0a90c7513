"""Reference equivalence, congruence and commutativity checks the checker
tests compare against.

`check_equivalence` tests each law in its own loop, with its own counters
and its own refutation report; `check_respects` scans the row-major product
case by case; `respects2_via_commutativity` bounds its two loops with
hand-kept counters and falls back on this module's `check_respects`.  All
three return the same reports (verdict, count, law or counterexample,
witness or note) as the functions of the same names in `quotients.equiv`.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from quotients.equiv import (
    CongruenceReport,
    EquivalenceReport,
    EquivRelation,
    RespectMap,
    Verdict,
)
from quotients.errors import RelationMismatchError


def _sample_elements(rel: EquivRelation, pairs: Iterable[tuple]) -> list:
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


def check_equivalence(rel: EquivRelation, budget: int) -> EquivalenceReport:
    """Test reflexivity, symmetry, and transitivity on sampled elements.

    Samples come from `rel.related_pairs(budget)`; the generator's own
    contract (emitted pairs are related and lie in the carrier) is checked
    first.  When a canonicalizer is present its laws are checked as well.
    Returns the first violation found, a no-samples verdict for a degenerate
    generator, or certified-up-to-budget.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    pairs = list(itertools.islice(rel.related_pairs(budget), budget))
    checked = 0

    for x, y in pairs:
        checked += 1
        if not (rel.carrier(x) and rel.carrier(y)):
            return EquivalenceReport(Verdict.REFUTED, checked, "pair-generator-carrier", (x, y))
        if not rel.decider(x, y):
            return EquivalenceReport(Verdict.REFUTED, checked, "pair-generator-decider", (x, y))

    elems = _sample_elements(rel, pairs)
    if not elems:
        return EquivalenceReport(Verdict.NO_SAMPLES, checked)

    for x in elems:
        checked += 1
        if not rel.decider(x, x):
            return EquivalenceReport(Verdict.REFUTED, checked, "reflexivity", (x, x))

    for x, y in pairs:
        checked += 1
        if not rel.decider(y, x):
            return EquivalenceReport(Verdict.REFUTED, checked, "symmetry", (x, y))

    # Chain generated pairs through shared midpoints for transitivity.
    by_first: dict = {}
    for x, y in pairs:
        by_first.setdefault(x, []).append(y)
    chains = 0
    for x, y in pairs:
        if chains >= budget:
            break
        for z in by_first.get(y, ()):
            chains += 1
            checked += 1
            if not rel.decider(x, z):
                return EquivalenceReport(Verdict.REFUTED, checked, "transitivity", (x, y, z))
            if chains >= budget:
                break

    # Cross-sample a bounded cube of elements for laws the generator's own
    # pairs cannot expose (e.g. unrelated elements turning out related).
    cube = elems[: max(2, round(budget ** (1 / 3)) + 2)]
    probes = 0
    for a, b in itertools.product(cube, repeat=2):
        if probes >= budget:
            break
        probes += 1
        checked += 1
        if rel.decider(a, b) and not rel.decider(b, a):
            return EquivalenceReport(Verdict.REFUTED, checked, "symmetry", (a, b))
    probes = 0
    for a, b, c in itertools.product(cube, repeat=3):
        if probes >= budget:
            break
        probes += 1
        if rel.decider(a, b) and rel.decider(b, c):
            checked += 1
            if not rel.decider(a, c):
                return EquivalenceReport(Verdict.REFUTED, checked, "transitivity", (a, b, c))

    if rel.canonicalize is not None:
        canon = rel.canonicalize
        for x in elems:
            checked += 1
            if not rel.decider(x, canon(x)):
                return EquivalenceReport(Verdict.REFUTED, checked, "canonical-related", (x, canon(x)))
        for x, y in pairs:
            checked += 1
            if canon(x) != canon(y):
                return EquivalenceReport(Verdict.REFUTED, checked, "canonical-agreement", (x, y))

    return EquivalenceReport(Verdict.CERTIFIED, checked)


def check_respects(m: RespectMap, budget: int) -> CongruenceReport:
    """Check `target_eq(f(x1, ..., xn), f(y1, ..., yn))` over related pairs:
    the first `budget` cases of the row-major product of each source's
    first `budget` pairs (one argument) or `int(budget ** (1/n)) + 1` pairs
    (n arguments).  For each case `f` is asked on the lefts, then on the
    rights, then `target_eq` on the two images.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = len(m.sources)
    side = budget if n <= 1 else int(budget ** (1 / n)) + 1
    per_source = [list(itertools.islice(rel.related_pairs(side), side)) for rel in m.sources]
    checked = 0
    for case in itertools.islice(itertools.product(*per_source), budget):
        checked += 1
        left = m.function(*[x for x, _ in case])
        right = m.function(*[y for _, y in case])
        if not m.target_eq(left, right):
            return CongruenceReport(Verdict.REFUTED, checked, case[0] if n == 1 else case)
    if checked == 0:
        return CongruenceReport(Verdict.NO_SAMPLES, 0)
    return CongruenceReport(Verdict.CERTIFIED, checked)


def respects2_via_commutativity(m: RespectMap, budget: int) -> CongruenceReport:
    """Certify a two-argument function via commutativity plus one argument.

    When `f` is commutative (up to the target equality) and respects the
    relation in its first argument, it respects it in both.  If the
    commutativity probe fails, this falls back to the full two-argument
    check and says so in the report's note.  A budget of 1, which the
    probe would use up, runs the full check.  Requires a two-argument map
    whose source relations are the same relation.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rel, other = m.sources
    if not rel.same_as(other):
        raise RelationMismatchError(
            f"commutativity shortcut needs one relation, got {rel.name} and {other.name}"
        )
    if budget < 2:
        full = check_respects(m, budget)
        note = "budget too small for the shortcut; ran the full two-argument check"
        return CongruenceReport(full.verdict, full.checked, full.counterexample, note)
    f = m.function
    side = max(1, int(budget ** 0.5) + 1)
    pairs = list(itertools.islice(rel.related_pairs(side), side))
    elems = _sample_elements(rel, pairs)
    if not elems:
        return CongruenceReport(Verdict.NO_SAMPLES, 0)

    checked = 0
    half = budget // 2
    for a, b in itertools.product(elems, repeat=2):
        if checked >= half:
            break
        checked += 1
        if not m.target_eq(f(a, b), f(b, a)):
            full = check_respects(m, budget - checked)
            note = f"not commutative at ({a!r}, {b!r}); ran the full two-argument check"
            return CongruenceReport(full.verdict, checked + full.checked, full.counterexample, note)

    for x, y in pairs:
        for c in elems:
            if checked >= budget:
                break
            checked += 1
            if not m.target_eq(f(x, c), f(y, c)):
                return CongruenceReport(Verdict.REFUTED, checked, ((x, y), (c, c)))
    return CongruenceReport(
        Verdict.CERTIFIED, checked, note="via commutativity and single-argument respect"
    )
