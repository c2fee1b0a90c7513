"""Generic machinery: equivalence checks, congruence checks, lifting."""

import itertools
import operator
from functools import partial
from typing import Callable, Sequence, TypeVar

import pytest
from hypothesis import given, settings, strategies as st

import equiv_oracle

from quotients.equiv import (
    EquivClass,
    EquivRelation,
    RespectMap,
    Verdict,
    check_equivalence,
    check_respects,
    class_eq,
    class_of,
    lift,
    respects2_via_commutativity,
    revalidate_counterexample,
)
from quotients.errors import DomainError, RelationMismatchError, UncertifiedLiftError
from quotients.integers import (
    ADD_MAP,
    LE_MAP,
    MUL_MAP,
    NEG_MAP,
    IntPair,
    QInt,
    add_pair,
    intrel,
    intrel_holds,
    neg,
    neg_pair,
    qint,
    to_nat,
)
from quotients.messages import (
    FREEDISCRIM_TRUNCATED_MAP,
    FREENONCES_MAP,
    Crypt,
    Decrypt,
    Nonce,
    crypt,
    decrypt,
    left,
    msgrel,
)
from quotients.rationals import RatPair, qrat, rat_neg, ratrel


T = TypeVar("T")


def filtered_pairs(
    elements: Sequence[T], decider: Callable[[T, T], bool]
) -> Callable[[int], list[tuple[T, T]]]:
    """Fallback related-pair generator: filter the Cartesian product of a
    finite element sample.  Quadratic and blind to the relation's structure;
    a dedicated generator beats it whenever one exists."""

    def related_pairs(budget: int) -> list[tuple[T, T]]:
        out: list[tuple[T, T]] = []
        for x, y in itertools.product(elements, repeat=2):
            if len(out) >= budget:
                break
            if decider(x, y):
                out.append((x, y))
        return out

    return related_pairs


def plain_eq(a, b):
    return a == b


# A deliberately broken relation: strict less-than on naturals.
less_than = EquivRelation(
    name="less-than",
    decider=lambda a, b: a < b,
    carrier=lambda a: isinstance(a, int) and a >= 0,
    related_pairs=lambda budget: [(i, i + 1) for i in range(budget)],
)

# A relation whose generator produces nothing.
barren = EquivRelation(
    name="barren",
    decider=lambda a, b: a == b,
    carrier=lambda a: True,
    related_pairs=lambda budget: [],
)


class TestCheckEquivalence:
    def test_intrel_certified(self):
        report = check_equivalence(intrel, 200)
        assert report.verdict is Verdict.CERTIFIED

    def test_less_than_refuted_reflexivity(self):
        report = check_equivalence(less_than, 10)
        assert report.verdict is Verdict.REFUTED
        assert report.law == "reflexivity"
        assert report.witness == (0, 0)

    def test_msgrel_certified(self):
        report = check_equivalence(msgrel, 500)
        assert report.verdict is Verdict.CERTIFIED

    def test_ratrel_certified(self):
        report = check_equivalence(ratrel, 200)
        assert report.verdict is Verdict.CERTIFIED

    def test_no_samples(self):
        report = check_equivalence(barren, 10)
        assert report.verdict is Verdict.NO_SAMPLES

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            check_equivalence(intrel, 0)

    def test_broken_symmetry_caught(self):
        # Divisibility is reflexive and transitive but not symmetric.
        divides = EquivRelation(
            name="divides",
            decider=lambda a, b: b % a == 0,
            carrier=lambda a: isinstance(a, int) and a >= 1,
            related_pairs=lambda budget: [(i, 2 * i) for i in range(1, budget + 1)],
        )
        report = check_equivalence(divides, 50)
        assert report.verdict is Verdict.REFUTED
        assert report.law == "symmetry"

    def test_filtered_pairs_fallback(self):
        # Congruence mod 3 with the generic product-plus-filter generator.
        mod3 = EquivRelation(
            name="mod3",
            decider=lambda a, b: a % 3 == b % 3,
            carrier=lambda a: isinstance(a, int) and a >= 0,
            related_pairs=filtered_pairs(range(20), lambda a, b: a % 3 == b % 3),
        )
        report = check_equivalence(mod3, 150)
        assert report.verdict is Verdict.CERTIFIED
        pairs = mod3.related_pairs(10)
        assert len(pairs) == 10
        assert all(mod3.decider(x, y) for x, y in pairs)


class TestClassOfAndEq:
    def test_class_of_canonicalizes(self):
        assert class_of(intrel, IntPair(3, 1)).representative == IntPair(2, 0)

    def test_class_of_already_canonical(self):
        assert class_of(intrel, IntPair(0, 0)).representative == IntPair(0, 0)

    def test_class_of_outside_carrier(self):
        with pytest.raises(DomainError):
            class_of(ratrel, RatPair(1, 0))
        with pytest.raises(DomainError):
            class_of(intrel, (-1, 0))

    def test_class_eq_examples(self):
        assert class_eq(class_of(intrel, IntPair(3, 1)), class_of(intrel, IntPair(5, 3)))
        assert class_eq(class_of(intrel, IntPair(0, 0)), class_of(intrel, IntPair(0, 0)))
        assert not class_eq(class_of(intrel, IntPair(1, 0)), class_of(intrel, IntPair(0, 1)))

    def test_class_eq_mismatched_relations(self):
        with pytest.raises(RelationMismatchError):
            class_eq(class_of(intrel, IntPair(1, 2)), class_of(ratrel, RatPair(1, 2)))

    @given(st.integers(0, 60), st.integers(0, 60), st.integers(0, 60), st.integers(0, 60))
    def test_class_eq_iff_decider(self, x, y, u, v):
        a, b = IntPair(x, y), IntPair(u, v)
        assert class_eq(class_of(intrel, a), class_of(intrel, b)) == intrel_holds(a, b)

    def test_equal_classes_hash_equal(self):
        a, b = class_of(intrel, IntPair(3, 1)), class_of(intrel, IntPair(5, 3))
        assert a == b and hash(a) == hash(b)

    def test_same_name_other_decider_is_another_relation(self):
        # Relation identity is name and decider: comparing across a
        # look-alike relation fails in both directions.
        fake = EquivRelation(
            name="intrel",
            decider=lambda p, q: True,
            carrier=intrel.carrier,
            related_pairs=intrel.related_pairs,
            canonicalize=intrel.canonicalize,
        )
        with pytest.raises(RelationMismatchError):
            class_of(fake, IntPair(5, 0), QInt) == qint(1, 0)
        with pytest.raises(RelationMismatchError):
            qint(1, 0) == class_of(fake, IntPair(5, 0), QInt)


class TestCheckRespects:
    def test_negation_certified(self):
        assert check_respects(NEG_MAP, 200).verdict is Verdict.CERTIFIED

    def test_first_component_refuted(self):
        m = RespectMap(lambda p: p[0], (intrel,), plain_eq)
        report = check_respects(m, 50)
        assert report.verdict is Verdict.REFUTED
        assert report.counterexample == (IntPair(0, 0), IntPair(1, 1))
        assert revalidate_counterexample(m, report)

    def test_truncated_discriminator_refuted(self):
        report = check_respects(FREEDISCRIM_TRUNCATED_MAP, 500)
        assert report.verdict is Verdict.REFUTED
        assert report.counterexample == (Crypt(0, Decrypt(0, Nonce(0))), Nonce(0))
        assert revalidate_counterexample(FREEDISCRIM_TRUNCATED_MAP, report)

    def test_no_samples(self):
        report = check_respects(RespectMap(lambda x: x, (barren,), plain_eq), 10)
        assert report.verdict is Verdict.NO_SAMPLES

    def test_counterexample_position_pinned(self):
        # A refutation deep in generator order pins the scan order and count.
        m = RespectMap(lambda p: (p[0] - p[1]) + (p[0] > 3), (intrel,), plain_eq)
        report = check_respects(m, 400)
        assert report.verdict is Verdict.REFUTED
        assert report.checked == 14
        assert report.counterexample == (IntPair(3, 0), IntPair(4, 1))
        assert revalidate_counterexample(m, report)


class TestCheckRespects2:
    def test_addition_certified(self):
        assert check_respects(ADD_MAP, 400).verdict is Verdict.CERTIFIED

    def test_le_certified(self):
        assert check_respects(LE_MAP, 200).verdict is Verdict.CERTIFIED

    def test_multiplication_certified(self):
        assert check_respects(MUL_MAP, 400).verdict is Verdict.CERTIFIED

    def test_first_components_refuted(self):
        m2 = RespectMap(lambda p, q: p[0] + q[0], (intrel, intrel), plain_eq)
        report = check_respects(m2, 100)
        assert report.verdict is Verdict.REFUTED
        assert revalidate_counterexample(m2, report)

    def test_row_major_counterexample_pinned(self):
        # Refuted in row 0, column 13 of the 21 x 21 product at budget 400.
        m2 = RespectMap(
            lambda p, q: (p[0] - p[1]) + (q[0] - q[1]) + (p[0] + q[0] > 4),
            (intrel, intrel), plain_eq,
        )
        report = check_respects(m2, 400)
        assert report.verdict is Verdict.REFUTED
        assert report.checked == 14
        assert report.counterexample == (
            (IntPair(0, 0), IntPair(1, 1)), (IntPair(3, 0), IntPair(4, 1))
        )
        assert revalidate_counterexample(m2, report)


class TestCheckRespectsNAry:
    add3 = RespectMap(
        lambda p, q, r: add_pair(add_pair(p, q), r), (intrel, intrel, intrel), intrel_holds
    )

    def test_three_arguments_certified(self):
        # 4 related pairs per argument: int(64 ** (1/3)) + 1.
        report = check_respects(self.add3, 64)
        assert report.verdict is Verdict.CERTIFIED
        assert report.checked == 64

    def test_three_argument_counterexample_revalidates(self):
        m3 = RespectMap(lambda p, q, r: r[0], (intrel, intrel, intrel), plain_eq)
        report = check_respects(m3, 64)
        assert report.verdict is Verdict.REFUTED
        assert report.checked == 1
        assert len(report.counterexample) == 3
        assert revalidate_counterexample(m3, report)

    def test_three_argument_lift(self):
        g = lift(check_respects(self.add3, 64), self.add3)
        z = [class_of(intrel, IntPair(x, y)) for x, y in ((3, 0), (0, 5), (4, 1))]
        assert intrel_holds(g(*z), IntPair(1, 0))

    def test_lift_arity_checked(self):
        g = lift(check_respects(ADD_MAP, 50), ADD_MAP)
        with pytest.raises(TypeError):
            g(class_of(intrel, IntPair(1, 0)))


class TestRespects2ViaCommutativity:
    def test_addition_via_commutativity(self):
        report = respects2_via_commutativity(ADD_MAP, 400)
        assert report.verdict is Verdict.CERTIFIED
        assert "commutativity" in report.note

    def test_multiplication_via_commutativity(self):
        assert respects2_via_commutativity(MUL_MAP, 400).verdict is Verdict.CERTIFIED

    def test_subtraction_falls_back(self):
        sub = RespectMap(
            lambda p, q: IntPair(p[0] + q[1], p[1] + q[0]), (intrel, intrel), intrel_holds
        )
        report = respects2_via_commutativity(sub, 400)
        # Subtraction respects the relation but is not commutative: the
        # shortcut must bail out to the full check, which certifies.
        assert report.verdict is Verdict.CERTIFIED
        assert "not commutative" in report.note
        assert report.checked == 400

    def test_mismatched_relations_rejected(self):
        m2 = RespectMap(lambda p, q: 0, (intrel, ratrel), plain_eq)
        with pytest.raises(RelationMismatchError):
            respects2_via_commutativity(m2, 10)

    @pytest.mark.parametrize("m2", [ADD_MAP, MUL_MAP], ids=["add", "mul"])
    def test_agrees_with_full_check(self, m2):
        shortcut = respects2_via_commutativity(m2, 300)
        full = check_respects(m2, 300)
        assert shortcut.certified
        assert full.certified


class TestLifting:
    def test_lift1_negation_characteristic_equation(self):
        g = lift(check_respects(NEG_MAP, 100), NEG_MAP)
        out = g(class_of(intrel, IntPair(3, 1)))
        assert intrel_holds(out, IntPair(1, 3))

    def test_lift1_constant(self):
        m = RespectMap(lambda p: 7, (intrel,), plain_eq)
        g = lift(check_respects(m, 100), m)
        assert g(class_of(intrel, IntPair(9, 4))) == 7

    def test_lift1_freenonces(self):
        g = lift(check_respects(FREENONCES_MAP, 200), FREENONCES_MAP)
        assert g(class_of(msgrel, Crypt(1, Nonce(5)))) == {5}

    def test_lift2_addition(self):
        g = lift(check_respects(ADD_MAP, 200), ADD_MAP)
        out = g(class_of(intrel, IntPair(1, 0)), class_of(intrel, IntPair(1, 0)))
        assert intrel_holds(out, IntPair(2, 0))

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_lift2_additive_identity(self, x, y):
        g = lift(check_respects(ADD_MAP, 50), ADD_MAP)
        z = class_of(intrel, IntPair(x, y))
        assert intrel_holds(g(class_of(intrel, IntPair(0, 0)), z), z.representative)

    def test_lift2_multiplication_native_oracle(self):
        g = lift(check_respects(MUL_MAP, 200), MUL_MAP)
        out = g(class_of(intrel, IntPair(2, 0)), class_of(intrel, IntPair(0, 3)))
        assert out == IntPair(0, 6)
        assert 2 * -3 == out[0] - out[1]

    def test_strict_lift_rejects_refuted(self):
        m = RespectMap(lambda p: p[0], (intrel,), plain_eq)
        report = check_respects(m, 50)
        with pytest.raises(UncertifiedLiftError) as exc:
            lift(report, m)
        assert exc.value.report is report

    def test_strict_lift_rejects_missing(self):
        with pytest.raises(UncertifiedLiftError):
            lift(None, NEG_MAP)
        with pytest.raises(UncertifiedLiftError):
            lift(None, ADD_MAP)

    def test_unchecked_lift_is_flagged(self):
        g = lift(None, NEG_MAP, strict=False)
        assert g.checked is False
        assert intrel_holds(g(class_of(intrel, IntPair(4, 1))), IntPair(1, 4))

    def test_lift_rejects_wrong_relation(self):
        g = lift(check_respects(NEG_MAP, 100), NEG_MAP)
        with pytest.raises(RelationMismatchError):
            g(class_of(ratrel, RatPair(1, 2)))

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_certified_lift_matches_function(self, x, y):
        g = lift(check_respects(NEG_MAP, 50), NEG_MAP)
        p = IntPair(x, y)
        assert intrel_holds(g(class_of(intrel, p)), neg_pair(p))

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(1, 12))
    def test_lift_invariant_under_rerepresentation(self, x, y, k):
        # Over a canonicalizer-free copy of the relation the stored
        # representative really is whatever the caller passed in.
        raw = EquivRelation(
            name="intrel-raw",
            decider=intrel_holds,
            carrier=intrel.carrier,
            related_pairs=intrel.related_pairs,
        )
        m = RespectMap(neg_pair, (raw,), intrel_holds)
        g = lift(check_respects(m, 50), m)
        a = class_of(raw, IntPair(x, y))
        b = class_of(raw, IntPair(x + k, y + k))
        assert intrel_holds(g(a), g(b))


class TestOperation:
    def test_values_are_classes(self):
        z = neg(qint(3, 1))
        assert isinstance(z, QInt) and isinstance(z, EquivClass)
        assert z.relation is intrel and z.representative == z.pair == IntPair(0, 2)
        assert lift(check_respects(NEG_MAP, 50), NEG_MAP)(z) == IntPair(2, 0)

    @pytest.mark.parametrize("op,arg", [
        (neg, qrat(1, 2)),
        (to_nat, qrat(3, 1)),
        (rat_neg, qint(1, 2)),
        (left, qint(1, 0)),
        (partial(crypt, 0), qint(1, 0)),
        (partial(decrypt, 1), qrat(1, 2)),
    ], ids=["neg-rational", "to_nat-rational", "rat_neg-integer", "left-integer",
            "crypt-integer", "decrypt-rational"])
    def test_cross_quotient_argument_rejected(self, op, arg):
        with pytest.raises(RelationMismatchError):
            op(arg)

    def test_integer_never_equals_rational(self):
        assert (qint(1, 0) == qrat(1, 1)) is False
        assert (qrat(1, 1) == qint(1, 0)) is False


# ---------------------------------------------------------------------------
# The checker against its reference copy on random finite relations

_R = range(6)


class _OutsideCarrier(Exception):
    pass


def _outcome(check, *args):
    """A report as a comparable tuple, or the exception it raised."""
    try:
        r = check(*args)
    except _OutsideCarrier as exc:
        return "raised", str(exc)
    if hasattr(r, "law"):
        return r.verdict, r.checked, r.law, r.witness
    return r.verdict, r.checked, r.counterexample, r.note


def _pair_lists(pool):
    # A drawn length spreads list sizes over 0-40 more evenly than
    # st.lists(max_size=40), which favours short lists.
    return st.integers(0, 40).flatmap(
        lambda n: st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@st.composite
def _finite_relations(draw):
    """A relation on a subset of range(6): a boolean table (reflexive,
    symmetric or neither) or a partition,
    with a decider that raises outside the carrier, 0-40 generated pairs
    that may be unrelated or outside the carrier, and an optional
    canonicalizer."""
    mask = draw(st.lists(st.booleans(), min_size=6, max_size=6))
    carrier = frozenset(x for x in _R if mask[x])
    kind = draw(st.sampled_from(["table", "reflexive", "symmetric", "partition"]))
    if kind != "partition":
        table = draw(st.lists(st.booleans(), min_size=36, max_size=36))
        reflexive, symmetric = kind != "table", kind == "symmetric"
        related = lambda x, y: ((reflexive and x == y)
                                or table[6 * min(x, y) + max(x, y) if symmetric else 6 * x + y])
    else:
        labels = draw(st.lists(st.integers(0, 5), min_size=6, max_size=6))
        related = lambda x, y: labels[x] == labels[y]

    def decider(x, y):
        if x not in carrier or y not in carrier:
            raise _OutsideCarrier(f"decider({x}, {y})")
        return related(x, y)

    inside = sorted(carrier)
    pools = [list(itertools.product(_R, repeat=2))]
    if inside:
        pools.append(list(itertools.product(inside, repeat=2)))
        pools.append([(x, y) for x, y in pools[-1] if related(x, y)] or pools[-1])
    pool = draw(st.sampled_from(pools + pools[-1:] * 3))
    pairs = draw(_pair_lists(pool))
    canons = [st.none(), st.lists(st.sampled_from(_R), min_size=6, max_size=6)]
    if inside:
        canons.append(st.lists(st.sampled_from(inside), min_size=6, max_size=6))
        # The least related carrier element (canonical for a partition), or
        # any related one.
        classes = [[y for y in inside if related(x, y)] or [x] for x in _R]
        canons.append(st.just([c[0] for c in classes]))
        canons.append(st.tuples(*map(st.sampled_from, classes)))
    canon = draw(st.one_of(canons))
    return EquivRelation(
        name="finite",
        decider=decider,
        carrier=carrier.__contains__,
        related_pairs=lambda budget: pairs,
        canonicalize=None if canon is None else canon.__getitem__,
    )


@settings(max_examples=400, deadline=None)
@given(_finite_relations(), st.integers(1, 60))
def test_check_equivalence_matches_oracle(rel, budget):
    assert _outcome(check_equivalence, rel, budget) == \
        _outcome(equiv_oracle.check_equivalence, rel, budget)


@st.composite
def _function_tables(draw):
    """A map on range(6)² over one random partition with 0-40 generated
    pairs: a random table, a commutative one, or one that respects the
    partition."""
    labels = draw(st.lists(st.integers(0, 5), min_size=6, max_size=6))
    rel = EquivRelation(
        name="partition",
        decider=lambda x, y: labels[x] == labels[y],
        carrier=lambda x: x in _R,
        related_pairs=lambda budget: pairs,
    )
    related = [(x, y) for x in _R for y in _R if labels[x] == labels[y]]
    pool = draw(st.sampled_from([related, list(itertools.product(_R, repeat=2))]))
    pairs = draw(_pair_lists(pool))
    table = draw(st.lists(st.integers(0, 5), min_size=36, max_size=36))
    kind = draw(st.sampled_from(["any", "commutative", "respecting"]))
    if kind == "any":
        f = lambda a, b: table[6 * a + b]
    elif kind == "commutative":
        f = lambda a, b: table[6 * min(a, b) + max(a, b)]
    else:
        f = lambda a, b: table[6 * min(labels[a], labels[b]) + max(labels[a], labels[b])]
    return RespectMap(f, (rel, rel), operator.eq, kind)


@settings(max_examples=300, deadline=None)
@given(_function_tables(), st.integers(1, 100))
def test_respects2_via_commutativity_matches_oracle(m, budget):
    assert _outcome(respects2_via_commutativity, m, budget) == \
        _outcome(equiv_oracle.respects2_via_commutativity, m, budget)


@settings(max_examples=300, deadline=None)
@given(_function_tables(), st.sampled_from([operator.eq, operator.ne]), st.integers(1, 100))
def test_respects2_via_commutativity_stays_in_budget(m, target_eq, budget):
    # operator.ne is not reflexive, so the probe can fail on its first case
    # and leave no budget for the full check.
    m = RespectMap(m.function, m.sources, target_eq, m.name)
    assert respects2_via_commutativity(m, budget).checked <= budget
