"""Generic machinery: equivalence checks, congruence checks, lifting."""

import copy
import gc
import itertools
import operator
import pickle
import sys
import threading
import weakref
import zlib
from functools import partial
from typing import Callable, Sequence, TypeVar

import pytest
from hypothesis import given, settings, strategies as st

import equiv_oracle
import pair_oracles

from quotients import integers, rationals, runner
from quotients.equiv import (
    CongruenceReport,
    EquivClass,
    EquivRelation,
    PairStream,
    RespectMap,
    Verdict,
    check_equivalence,
    check_respects,
    class_eq,
    class_of,
    lift,
    operation,
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
    msg_relation,
    msgrel,
)
from quotients.rationals import RAT_ADD_MAP, RatPair, qrat, rat_add, rat_neg, ratrel


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
        assert report.certified

    def test_less_than_refuted_reflexivity(self):
        report = check_equivalence(less_than, 10)
        assert report.verdict is Verdict.REFUTED
        assert report.law == "reflexivity"
        assert report.witness == (0, 0)
        assert not report.certified

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
        with pytest.raises(ValueError):
            check_respects(NEG_MAP, 0)
        with pytest.raises(ValueError):
            respects2_via_commutativity(ADD_MAP, 0)

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

    @pytest.mark.parametrize("rel", [intrel, ratrel], ids=["intrel", "ratrel"])
    def test_canonicalizes_each_element_once(self, rel):
        # One call per distinct sampled element, in first-seen order, then
        # one per canonical form appended after them; the carrier once per
        # distinct element, in the same order.  A relation over a stream
        # keeps them: a repeat at the same or a smaller budget, or a
        # commutativity check on fewer pairs, asks neither again.
        calls, carried = [], []

        def counted(p):
            calls.append(p)
            return rel.canonicalize(p)

        def carrier(p):
            carried.append(p)
            return rel.carrier(p)

        counting = EquivRelation(rel.name, rel.decider, carrier, rel.related_pairs, counted)
        expected = check_equivalence(rel, 2000)
        assert check_equivalence(counting, 2000) == expected
        pairs = rel.related_pairs(2000)
        sampled = list(dict.fromkeys(e for pair in pairs for e in pair))
        elems = equiv_oracle._sample_elements(rel, pairs)
        assert len(elems) >= len(sampled) > 100
        assert calls == elems
        assert carried == sampled
        del calls[:], carried[:]
        assert check_equivalence(counting, 2000) == expected
        for budget in (1999, 141, 1):
            assert check_equivalence(counting, budget) == check_equivalence(rel, budget)
        commutative = RespectMap(rel.decider, (counting, counting), operator.eq)
        respects2_via_commutativity(commutative, 2000)
        assert calls == carried == []

    @pytest.mark.parametrize("rel", [intrel, ratrel], ids=["intrel", "ratrel"])
    def test_plain_relation_samples_afresh(self, rel):
        # A related_pairs that is no PairStream promises no prefixes, so
        # each check asks the carrier once per distinct element again.
        carried = []

        def carrier(p):
            carried.append(p)
            return rel.carrier(p)

        plain = EquivRelation(rel.name, rel.decider, carrier, lambda b: rel.related_pairs(b),
                              rel.canonicalize)
        for budget in (500, 500, 200):
            del carried[:]
            assert check_equivalence(plain, budget) == check_equivalence(rel, budget)
            pairs = rel.related_pairs(budget)
            assert carried == list(dict.fromkeys(e for pair in pairs for e in pair))

    # check_equivalence(rel, budget).checked, pinned for both numeric
    # relations: at 1, 2, 10, around the commutativity check's 141 pairs at
    # budget 20,000, and at the CLI's budgets.
    CHECKED = {1: (9, 11), 2: (18, 20), 10: (73, 82), 141: (780, 819), 142: (785, 826),
               2000: (9347, 10303), 20000: (86020, 100839)}

    @pytest.mark.parametrize("column, source", [(0, integers._shift_pairs),
                                                (1, rationals._scaled_pairs)],
                             ids=["intrel", "ratrel"])
    def test_checked_is_pinned_in_any_order(self, column, source):
        rel = (intrel, ratrel)[column]
        fresh = EquivRelation(rel.name, rel.decider, rel.carrier, PairStream(source),
                              rel.canonicalize)
        ascending = sorted(self.CHECKED)
        expected = {budget: equiv_oracle.check_equivalence(rel, budget) for budget in ascending}
        for budget in ascending + ascending[::-1] + ascending:
            report = check_equivalence(fresh, budget)
            assert report == expected[budget]
            assert report.checked == self.CHECKED[budget][column]

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
        report = check_respects(NEG_MAP, 200)
        assert report.verdict is Verdict.CERTIFIED
        assert report.map is NEG_MAP
        assert not revalidate_counterexample(report)

    def test_first_component_refuted(self):
        m = RespectMap(lambda p: p[0], (intrel,), plain_eq)
        report = check_respects(m, 50)
        assert report.verdict is Verdict.REFUTED
        assert report.counterexample == (IntPair(0, 0), IntPair(1, 1))
        assert revalidate_counterexample(report)
        unnamed = CongruenceReport(report.verdict, report.checked, report.counterexample)
        assert not revalidate_counterexample(unnamed)

    def test_truncated_discriminator_refuted(self):
        report = check_respects(FREEDISCRIM_TRUNCATED_MAP, 500)
        assert report.verdict is Verdict.REFUTED
        assert report.counterexample == (Crypt(0, Decrypt(0, Nonce(0))), Nonce(0))
        assert revalidate_counterexample(report)

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
        assert revalidate_counterexample(report)


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
        assert revalidate_counterexample(report)

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
        assert revalidate_counterexample(report)


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
        assert revalidate_counterexample(report)

    def test_three_argument_lift(self):
        g = lift(check_respects(self.add3, 64))
        z = [class_of(intrel, IntPair(x, y)) for x, y in ((3, 0), (0, 5), (4, 1))]
        assert intrel_holds(g(*z), IntPair(1, 0))

    def test_lift_arity_checked(self):
        g = lift(check_respects(ADD_MAP, 50))
        with pytest.raises(TypeError):
            g(class_of(intrel, IntPair(1, 0)))

    def test_each_distinct_argument_is_asked_once(self):
        # The first 20,000 intrel pairs draw 2,418 distinct elements; a scan
        # without an image table asks neg_pair twice per case, 40,000 times.
        calls = []
        counted = RespectMap(lambda p: calls.append(p) or neg_pair(p), (intrel,), intrel_holds)
        report = check_respects(counted, 20000)
        assert report.verdict is Verdict.CERTIFIED and report.checked == 20000
        assert len(calls) == len(set(calls)) == 2418

    def test_each_distinct_argument_tuple_is_asked_once(self):
        # 142 pairs per argument at budget 20,000: the 20,000 cases of the
        # 142 x 142 product have 40,000 argument tuples, few of them distinct.
        calls = []
        counted = RespectMap(lambda p, q: calls.append((p, q)) or add_pair(p, q),
                             ADD_MAP.sources, ADD_MAP.target_eq, ADD_MAP.name)
        report = check_respects(counted, 20000)
        assert report.verdict is Verdict.CERTIFIED and report.checked == 20000
        pairs = intrel.related_pairs(142)
        cases = itertools.islice(itertools.product(pairs, repeat=2), 20000)
        distinct = {(p[i], q[i]) for p, q in cases for i in (0, 1)}
        assert len(calls) == len(set(calls)) == len(distinct) < 40000

    @pytest.mark.parametrize("m, checked, k", [(ADD_MAP, 19608, 86), (RAT_ADD_MAP, 20000, 153)],
                             ids=["intrel", "ratrel"])
    def test_commutativity_reads_one_table(self, m, checked, k):
        # The first 142 pairs draw k distinct elements (86 of intrel's): the
        # probe's f(a, b) and f(b, a) and the first-argument cases are cells
        # of one k x k table, each asked once.  The probe reaches all of
        # intrel's table, and about two thirds of ratrel's.
        calls = []
        counted = RespectMap(lambda p, q: calls.append((p, q)) or m.function(p, q),
                             m.sources, m.target_eq, m.name)
        report = respects2_via_commutativity(counted, 20000)
        assert report.verdict is Verdict.CERTIFIED and report.checked == checked
        assert len(calls) == len(set(calls)) <= k * k
        assert len(calls) == 86 * 86 == 7396 or k > 86

    def test_a_refutation_in_the_first_fill_asks_nothing_past_it(self):
        # The first fill images the elements that the first 16 cases draw,
        # in first-seen order; the map refutes at case 14, within them.
        calls = []
        f = lambda p: (p[0] - p[1]) + (p[0] > 3)
        counted = RespectMap(lambda p: calls.append(p) or f(p), (intrel,), plain_eq)
        assert check_respects(counted, 500).checked == 14
        xs, ys = intrel.related_pairs.columns(16)
        assert calls == list(dict.fromkeys(z for pair in zip(xs, ys) for z in pair))

    def test_unhashable_arguments_match_oracle(self):
        pairs = [([0], [0]), ([0], [1]), ([1], [0])]
        rel = EquivRelation("lists", operator.eq, lambda x: True, lambda budget: pairs)
        m = RespectMap(lambda p, q: p[0] + q[0], (rel, rel), plain_eq)
        assert _outcome(check_respects, m, 9) == _outcome(equiv_oracle.check_respects, m, 9) \
            == (Verdict.REFUTED, 2, (([0], [0]), ([0], [1])), None)

    def test_nullary_map_is_its_one_empty_case(self):
        calls = []
        m0 = RespectMap(lambda: calls.append(1) or 7, (), plain_eq, name="seven")
        report = check_respects(m0, 50)
        assert report.verdict is Verdict.CERTIFIED and report.checked == 1
        assert report.counterexample is None and report.map is m0 and len(calls) == 2
        assert lift(report)() == 7

    def test_refuted_nullary_map_revalidates(self):
        # No pairs: the one case is f() against f(), and a map whose images
        # differ each call is refuted there and revalidates as refuted.
        m0 = RespectMap(lambda: object(), (), operator.eq)
        report = check_respects(m0, 5)
        assert report.verdict is Verdict.REFUTED and report.counterexample == ()
        assert revalidate_counterexample(report)


class TestRespects2ViaCommutativity:
    def test_addition_via_commutativity(self):
        report = respects2_via_commutativity(ADD_MAP, 400)
        assert report.verdict is Verdict.CERTIFIED
        assert "commutativity" in report.note
        out = lift(report)(class_of(intrel, IntPair(2, 0)), class_of(intrel, IntPair(0, 5)))
        assert intrel_holds(out, IntPair(0, 3))

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
        assert report.map is sub

    @pytest.mark.parametrize("m", [NEG_MAP, RespectMap(lambda: 0, (), plain_eq),
                                   TestCheckRespectsNAry.add3], ids=["one", "none", "three"])
    def test_other_arities_rejected(self, m):
        with pytest.raises(TypeError, match=f"takes 2 arguments, got {len(m.sources)}"):
            respects2_via_commutativity(m, 400)

    def test_mismatched_relations_rejected(self):
        m2 = RespectMap(lambda p, q: 0, (intrel, ratrel), plain_eq)
        with pytest.raises(RelationMismatchError):
            respects2_via_commutativity(m2, 10)

    def test_budget_one_rests_on_a_respect_case(self):
        # The probe would spend the whole budget of 1 on commutativity and
        # certify on no respect case; the full check runs instead.
        m = RespectMap(lambda p, q: (p[0] + q[0], 0), (intrel, intrel), intrel_holds)
        report = respects2_via_commutativity(m, 1)
        full = check_respects(m, 1)
        assert report.verdict is full.verdict is Verdict.REFUTED
        assert report.checked == full.checked == 1
        assert report.counterexample == full.counterexample
        assert report.note == "budget too small for the shortcut; ran the full two-argument check"
        assert report.map is m and revalidate_counterexample(report)
        assert respects2_via_commutativity(ADD_MAP, 1).note == report.note

    @pytest.mark.parametrize("m2", [ADD_MAP, MUL_MAP], ids=["add", "mul"])
    def test_agrees_with_full_check(self, m2):
        shortcut = respects2_via_commutativity(m2, 300)
        full = check_respects(m2, 300)
        assert shortcut.certified
        assert full.certified


class _Image:
    """A map's image that a weak reference can watch, compared by value."""

    __slots__ = ("value", "__weakref__")

    def __init__(self, value):
        self.value = value


def _int_value(p):
    return p[0] - p[1]


@pytest.mark.parametrize("check, function, verdict, note", [
    (check_respects, lambda p: -_int_value(p), Verdict.CERTIFIED, None),
    (check_respects, lambda p, q: _int_value(p) + _int_value(q), Verdict.CERTIFIED, None),
    (respects2_via_commutativity, lambda p, q: _int_value(p) * _int_value(q),
     Verdict.CERTIFIED, "via commutativity and single-argument respect"),
    (respects2_via_commutativity, lambda p, q: _int_value(p) - _int_value(q),
     Verdict.CERTIFIED, "not commutative"),
    (check_respects, lambda p: p[0], Verdict.REFUTED, None),
], ids=["one", "two", "commutativity", "probe-refuted", "refuted"])
def test_images_are_released_when_a_check_returns(check, function, verdict, note):
    # A check keeps every image it asks for until it returns; between checks
    # the relation keeps only its sample of elements.
    images = []

    def image(*args):
        out = _Image(function(*args))
        images.append(weakref.ref(out))
        return out

    m = RespectMap(image, (intrel,) * function.__code__.co_argcount,
                   lambda a, b: a.value == b.value)
    report = check(m, 2000)
    assert report.verdict is verdict and (note is None or note in report.note)
    assert images
    gc.collect()
    assert [ref for ref in images if ref() is not None] == []
    sample = runner.sample_of(intrel)
    assert all(type(z) is IntPair for z in sample.elems + sample.forms)


class TestLifting:
    def test_lifted_operations_name_their_maps(self):
        # One lift per operation: each eval table entry is its module's
        # public operation, and every lifted operation names the map it
        # applies.
        assert integers.OPERATIONS["+"] is integers.add
        declared = [
            (integers.OPERATIONS, {"neg": NEG_MAP, "nat": integers.NAT_MAP, "+": ADD_MAP,
                                   "*": MUL_MAP, "le": LE_MAP, "-": integers.SUB_MAP}),
            (rationals.OPERATIONS, {"neg": rationals.RAT_NEG_MAP, "+": rationals.RAT_ADD_MAP,
                                    "*": rationals.RAT_MUL_MAP}),
            (rationals.PARTIAL, {"inv": rationals.RAT_INV_MAP}),
        ]
        for table, maps in declared:
            assert list(table) == list(maps)
            assert all(table[op].map is m for op, m in maps.items())
        assert operation(ADD_MAP).map is ADD_MAP
        assert operation(ADD_MAP, QInt).map is ADD_MAP
        report = check_respects(NEG_MAP, 50)
        assert lift(report).map is report.map is NEG_MAP

    def test_lift1_negation_characteristic_equation(self):
        g = lift(check_respects(NEG_MAP, 100))
        out = g(class_of(intrel, IntPair(3, 1)))
        assert intrel_holds(out, IntPair(1, 3))

    def test_lift1_constant(self):
        m = RespectMap(lambda p: 7, (intrel,), plain_eq)
        g = lift(check_respects(m, 100))
        assert g(class_of(intrel, IntPair(9, 4))) == 7

    def test_lift1_freenonces(self):
        g = lift(check_respects(FREENONCES_MAP, 200))
        assert g(class_of(msgrel, Crypt(1, Nonce(5)))) == {5}

    def test_lift2_addition(self):
        g = lift(check_respects(ADD_MAP, 200))
        out = g(class_of(intrel, IntPair(1, 0)), class_of(intrel, IntPair(1, 0)))
        assert intrel_holds(out, IntPair(2, 0))

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_lift2_additive_identity(self, x, y):
        g = lift(check_respects(ADD_MAP, 50))
        z = class_of(intrel, IntPair(x, y))
        assert intrel_holds(g(class_of(intrel, IntPair(0, 0)), z), z.representative)

    def test_lift2_multiplication_native_oracle(self):
        g = lift(check_respects(MUL_MAP, 200))
        out = g(class_of(intrel, IntPair(2, 0)), class_of(intrel, IntPair(0, 3)))
        assert out == IntPair(0, 6)
        assert 2 * -3 == out[0] - out[1]

    def test_strict_lift_rejects_refuted(self):
        m = RespectMap(lambda p: p[0], (intrel,), plain_eq)
        report = check_respects(m, 50)
        with pytest.raises(UncertifiedLiftError) as exc:
            lift(report)
        assert exc.value.report is report

    def test_strict_lift_rejects_missing(self):
        with pytest.raises(UncertifiedLiftError, match="no congruence report") as exc:
            lift(None)
        assert exc.value.report is None

    def test_unchecked_lift_is_flagged(self):
        g = operation(NEG_MAP)
        assert intrel_holds(g(class_of(intrel, IntPair(4, 1))), IntPair(1, 4))

    def test_lift_takes_the_map_from_its_report(self):
        cert = check_respects(NEG_MAP, 50)
        p = IntPair(3, 0)  # canonical, so the class stores p itself
        assert lift(cert)(class_of(intrel, p)) == neg_pair(p) == IntPair(0, 3)
        with pytest.raises(TypeError):
            lift(cert, NEG_MAP)
        refuted = check_respects(RespectMap(lambda p: p[0], (intrel,), plain_eq), 50)
        for report, problem in [
            (check_equivalence(intrel, 50), "EquivalenceReport is not a congruence report"),
            (CongruenceReport(Verdict.CERTIFIED, 3), "the report names no map"),
            (None, "no congruence report"),
            (refuted, "verdict refuted, counterexample"),
        ]:
            with pytest.raises(UncertifiedLiftError, match=problem) as exc:
                lift(report)
            assert exc.value.report is report

    def test_lift_rejects_wrong_relation(self):
        g = lift(check_respects(NEG_MAP, 100))
        with pytest.raises(RelationMismatchError):
            g(class_of(ratrel, RatPair(1, 2)))

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_certified_lift_matches_function(self, x, y):
        g = lift(check_respects(NEG_MAP, 50))
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
        g = lift(check_respects(m, 50))
        a = class_of(raw, IntPair(x, y))
        b = class_of(raw, IntPair(x + k, y + k))
        assert intrel_holds(g(a), g(b))
        assert a == b and hash(a) == hash(b)


class TestOperation:
    def test_values_are_classes(self):
        z = neg(qint(3, 1))
        assert isinstance(z, QInt) and isinstance(z, EquivClass)
        assert z.relation is intrel and z.representative == z.pair == IntPair(0, 2)
        assert lift(check_respects(NEG_MAP, 50))(z) == IntPair(2, 0)

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

    @pytest.mark.parametrize("call, got", [
        (lambda: neg(1), "int"),
        (lambda: qint(1, 0) + 1, "int"),
        (lambda: qint(1, 0) <= 2, "int"),
        (lambda: rat_add(qrat(1, 2), 3), "int"),
        (lambda: left(Nonce(1)), "Nonce"),
    ], ids=["neg", "add-operator", "le-operator", "rat_add", "left"])
    def test_argument_that_is_no_class_rejected(self, call, got):
        with pytest.raises(TypeError, match=f"^lifted function takes classes, got {got}$"):
            call()

    def test_integer_never_equals_rational(self):
        assert (qint(1, 0) == qrat(1, 1)) is False
        assert (qrat(1, 1) == qint(1, 0)) is False


# ---------------------------------------------------------------------------
# The checker against its reference copy on random finite relations

_R = range(6)


class _OutsideCarrier(Exception):
    pass


class _NoImage(Exception):
    """What a table map raises on an argument tuple it has no entry for."""


def _outcome(check, *args):
    """A report as a comparable tuple, or the exception it raised; a
    StopIteration, or the RuntimeError a generator turns it into, reads as
    "stopped"."""
    try:
        r = check(*args)
    except (_OutsideCarrier, _NoImage) as exc:
        return "raised", type(exc).__name__, str(exc)
    except (StopIteration, RuntimeError):
        return "stopped"
    if hasattr(r, "law"):
        return r.verdict, r.checked, r.law, r.witness
    return r.verdict, r.checked, r.counterexample, r.note


def _pair_lists(pool):
    # A drawn length spreads list sizes over 0-40 more evenly than
    # st.lists(max_size=40), which favours short lists.
    return st.integers(0, 40).flatmap(
        lambda n: st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@st.composite
def _finite_relations(draw, outside: type = _OutsideCarrier):
    """A relation on a subset of range(6): a boolean table (reflexive,
    symmetric or neither) or a partition,
    with a decider that raises `outside` outside the carrier, 0-40
    generated pairs that may be unrelated or outside the carrier, and an
    optional canonicalizer."""
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
            raise outside(f"decider({x}, {y})")
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
@given(_finite_relations(), st.integers(1, 60), st.integers(1, 60))
def test_check_equivalence_matches_oracle(rel, budget, other):
    # Each budget twice, on the relation and on a copy whose pairs come
    # from a PairStream, which keeps its sample from call to call, also
    # after a refuted one.
    pairs = list(rel.related_pairs(60))
    streamed = EquivRelation(rel.name, rel.decider, rel.carrier,
                             PairStream(lambda: [([x for x, _ in pairs], [y for _, y in pairs])]),
                             rel.canonicalize)
    for r in (rel, streamed):
        for b in (budget, other, budget, other):
            assert _outcome(check_equivalence, r, b) == \
                _outcome(equiv_oracle.check_equivalence, rel, b)


@settings(max_examples=200, deadline=None)
@given(_finite_relations(), st.integers(1, 60), st.integers(1, 60))
def test_pairs_that_are_no_prefix_match_oracle(rel, budget, other):
    # Odd budgets take the pairs in reverse, so a smaller budget's pairs
    # need not be a prefix of a larger one's; no sample may be kept.
    pairs = list(rel.related_pairs(60))
    shuffled = EquivRelation(rel.name, rel.decider, rel.carrier,
                             lambda b: pairs[::-1][:b] if b % 2 else pairs[:b], rel.canonicalize)
    for b in (budget, other, budget):
        assert _outcome(check_equivalence, shuffled, b) == \
            _outcome(equiv_oracle.check_equivalence, shuffled, b)


@pytest.mark.parametrize("carrier, law", [
    (lambda x: True, "pair-generator-decider"),
    (lambda x: x != [1], "pair-generator-carrier"),
], ids=["decider", "carrier"])
def test_unhashable_elements_meet_the_contract_first(carrier, law):
    # The generator's contract is checked before the sample is read as
    # distinct elements, which unhashable ones cannot be: a pair that
    # breaks it refutes, as the oracle does, before anything raises.
    pairs = [([0], [0]), ([0], [1]), ([1], [1])]
    rel = EquivRelation("lists", operator.eq, carrier, lambda budget: pairs)
    assert _outcome(check_equivalence, rel, 3) == \
        _outcome(equiv_oracle.check_equivalence, rel, 3) == (Verdict.REFUTED, 2, law, ([0], [1]))


def _partition_with_canonicalizer(canon):
    """Three classes {0, 1}, {2, 3}, {4, 5} of range(6), with related
    generated pairs and the canonicalizer `canon`."""
    labels = (0, 0, 1, 1, 2, 2)
    return EquivRelation(
        name="finite",
        decider=lambda x, y: labels[x] == labels[y],
        carrier=lambda x: x in _R,
        related_pairs=lambda budget: [(0, 1), (1, 0), (2, 3), (4, 5), (5, 4)],
        canonicalize=canon.__getitem__,
    )


@pytest.mark.parametrize("canon, law, witness", [
    # Each element its own form: related to it, but a class has two forms.
    ((0, 1, 2, 3, 4, 5), "canonical-agreement", (0, 1)),
    # 5's form 3 lies in another class.
    ((0, 0, 2, 2, 4, 3), "canonical-related", (5, 3)),
], ids=["agreement", "related"])
def test_broken_canonicalizer_matches_oracle(canon, law, witness):
    rel = _partition_with_canonicalizer(canon)
    for budget in (5, 60):
        outcome = _outcome(check_equivalence, rel, budget)
        assert outcome == _outcome(equiv_oracle.check_equivalence, rel, budget)
        assert outcome[0] is Verdict.REFUTED and outcome[2:] == (law, witness)


def test_form_placed_later_is_appended_to_a_smaller_sample():
    # A refuted check at budget 4 places every element, the form 5 of 0
    # and 1 among them; a later check at budget 2 does not reach 5 and
    # appends it as a form, while one at budget 3 draws it as an element.
    labels = (0, 0, 1, 1, 2, 0)
    pairs = [(0, 1), (2, 3), (5, 5), (6, 6)]
    rel = EquivRelation(
        name="finite",
        decider=lambda x, y: labels[x] == labels[y],
        carrier=lambda x: x in _R,
        related_pairs=PairStream(lambda: [([x for x, _ in pairs], [y for _, y in pairs])]),
        canonicalize=(5, 5, 2, 2, 4, 5).__getitem__,
    )
    for budget, law in ((4, "pair-generator-carrier"), (2, None), (3, None), (2, None)):
        outcome = _outcome(check_equivalence, rel, budget)
        assert outcome == _outcome(equiv_oracle.check_equivalence, rel, budget)
        assert outcome[2] == law
    assert equiv_oracle._sample_elements(rel, pairs[:2]) == [0, 1, 2, 3, 5]


class _CellError(_OutsideCarrier):
    """What a decider raises on the one cell of carrier elements it cannot
    decide."""


def _raising_on(cell: tuple | None, decider: Callable) -> Callable:
    """`decider`, raising `_CellError` on `cell`, and recording every cell
    it is asked in its `asked` list."""
    def raising(x, y):
        raising.asked.append((x, y))
        if (x, y) == cell:
            raise _CellError(f"decider{cell}")
        return decider(x, y)

    raising.asked = []
    return raising


@pytest.mark.parametrize("pairs, cell, related, budget, outcome", [
    # At budget 4 the cube's cases are its first four pairs and triples,
    # all led by 0, so none needs (4, 3).
    ([(0, 3), (3, 0), (1, 4), (4, 1)], (4, 3), lambda x, y: x % 3 == y % 3, 4,
     (Verdict.CERTIFIED, 22, None, None)),
    # Cube symmetry fails at (0, 1), its third pair, before any case
    # reaches (3, 4).
    ([(0, 3), (1, 4)], (3, 4), lambda x, y: (x, y) == (0, 1) or x % 3 == y % 3, 30,
     (Verdict.REFUTED, 11, "symmetry", (0, 1))),
], ids=["cell-no-case-asks", "refuted-before-the-cell"])
def test_the_cube_asks_in_case_order(pairs, cell, related, budget, outcome):
    # Each cube cell is asked when a case first needs it, so a cell that
    # no case reaches is never asked, and a decider that would raise there
    # gets the oracle's report.
    decider = _raising_on(cell, related)
    rel = EquivRelation("mod3", decider, lambda x: True, lambda b: pairs)
    assert _outcome(check_equivalence, rel, budget) == outcome
    assert cell not in decider.asked
    assert _outcome(equiv_oracle.check_equivalence, rel, budget) == outcome


@st.composite
def _relations_raising_on_a_cell(draw):
    """`_finite_relations` whose decider records what it is asked
    (`_raising_on`) and raises `_CellError` on one drawn cell of carrier
    elements, where the carrier has any: mostly a cell of the first four
    sampled ones, where the cube's cases are."""
    rel = draw(_finite_relations())
    inside = [x for x in _R if rel.carrier(x)]
    sampled = dict.fromkeys(itertools.chain.from_iterable(rel.related_pairs(60)))
    early = [x for x in sampled if rel.carrier(x)][:4]
    cell = None
    if inside:
        pool = draw(st.sampled_from([inside] + [early] * 3 if early else [inside]))
        cell = draw(st.tuples(st.sampled_from(pool), st.sampled_from(pool)))
    return EquivRelation(rel.name, _raising_on(cell, rel.decider), rel.carrier,
                         rel.related_pairs, rel.canonicalize)


@settings(max_examples=300, deadline=None)
@given(_relations_raising_on_a_cell(), st.integers(1, 60))
def test_a_decider_raising_on_a_cell_matches_oracle(rel, budget):
    # The check asks the decider only what the oracle asks, so it raises
    # where the oracle raises; a kept sample asks less.
    pairs = list(rel.related_pairs(60))
    streamed = EquivRelation(rel.name, rel.decider, rel.carrier,
                             PairStream(lambda: [([x for x, _ in pairs], [y for _, y in pairs])]),
                             rel.canonicalize)
    asked = rel.decider.asked
    for r in (rel, streamed, streamed):
        asked.clear()
        outcome = _outcome(check_equivalence, r, budget)
        by_check = set(asked)
        asked.clear()
        assert outcome == _outcome(equiv_oracle.check_equivalence, rel, budget)
        assert by_check <= set(asked)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5).flatmap(lambda c: st.lists(st.booleans(), min_size=c * c,
                                                   max_size=c * c)),
       st.integers(1, 130))
def test_the_cube_asks_each_cell_once_in_case_order(table, budget):
    # The cube's cases, asked one by one as the oracle asks them: the
    # symmetry cases' first asks are the cube's asks, in order, and the
    # transitivity cases find every cell they read asked already.
    c = round(len(table) ** 0.5)
    asked = []

    def related(a, b):
        asked.append((a, b))
        return table[a * c + b]

    def reference():
        checked = 0
        for a, b in itertools.islice(itertools.product(range(c), repeat=2), budget):
            checked += 1
            if related(a, b) and not related(b, a):
                return checked, ("symmetry", (a, b))
        symmetry = set(asked)
        for a, b, x in itertools.islice(itertools.product(range(c), repeat=3), budget):
            if related(a, b) and related(b, x):
                checked += 1
                if not related(a, x):
                    return checked, ("transitivity", (a, b, x))
            assert set(asked) == symmetry
        return checked, None

    outcome, first_asks = reference(), list(dict.fromkeys(asked))
    asked.clear()
    assert runner._cube_cases(related, list(range(c)), budget) == outcome
    assert asked == first_asks


class _CanonError(Exception):
    pass


class _Form:
    """A canonical form hashed by identity that cannot be compared."""

    def __init__(self, label: int):
        self.label = label

    __hash__ = object.__hash__

    def __eq__(self, other):
        raise AssertionError("a form was compared")


def test_forms_are_asked_before_any_is_compared():
    # The oracle canonicalizes every sampled element before it compares
    # the forms of any pair, so the canonicalizer's error on element 7
    # comes first.
    def canonicalize(x):
        if x == 7:
            raise _CanonError(x)
        return _Form(x % 3)

    for stream in (False, True):
        rel = _mod3(stream=stream, canonicalize=canonicalize)
        for check in (check_equivalence, equiv_oracle.check_equivalence):
            with pytest.raises(_CanonError):
                check(rel, 10)


@st.composite
def _partitions(draw):
    """A random partition of range(6), as its labels and a relation with
    0-40 generated pairs, all related or any."""
    labels = draw(st.lists(st.integers(0, 5), min_size=6, max_size=6))
    related = [(x, y) for x in _R for y in _R if labels[x] == labels[y]]
    pool = draw(st.sampled_from([related, list(itertools.product(_R, repeat=2))]))
    pairs = draw(_pair_lists(pool))
    rel = EquivRelation(
        name="partition",
        decider=lambda x, y: labels[x] == labels[y],
        carrier=lambda x: x in _R,
        related_pairs=lambda budget: pairs,
    )
    return labels, rel


def _table_map(draw, key: Callable[[tuple], int], size: int, hole: type) -> Callable:
    """A function whose image of `args` is entry `key(args)` of a random
    table of `size` entries; up to three drawn keys have no entry, and
    their arguments raise `hole`."""
    table = draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
    holes = draw(st.sets(st.integers(0, size - 1), max_size=3))

    def f(*args):
        k = key(args)
        if k in holes:
            raise hole(f"f{args}")
        return table[k]

    return f


@st.composite
def _function_tables(draw, hole: type = _NoImage):
    """A map on range(6)² over one random partition with 0-40 generated
    pairs: a random table, a commutative one, or one that respects the
    partition; it may raise `hole` on some argument tuples."""
    labels, rel = draw(_partitions())
    kind = draw(st.sampled_from(["any", "commutative", "respecting"]))
    if kind == "any":
        key = lambda args: 6 * args[0] + args[1]
    elif kind == "commutative":
        key = lambda args: 6 * min(args) + max(args)
    else:
        key = lambda args: 6 * min(labels[a] for a in args) + max(labels[a] for a in args)
    return RespectMap(_table_map(draw, key, 36, hole), (rel, rel), operator.eq, kind)


@st.composite
def _maps(draw, hole: type = _NoImage):
    """A map of 0-3 arguments, each over its own random partition: a
    random table on the arguments, or one on their classes, which respects
    the partitions; it may raise `hole` on some argument tuples."""
    sources = [draw(_partitions()) for _ in range(draw(st.integers(0, 3)))]
    kind = draw(st.sampled_from(["any", "respecting"]))

    def key(args):
        k = 0
        for (labels, _), a in zip(sources, args):
            k = 6 * k + (a if kind == "any" else labels[a])
        return k

    f = _table_map(draw, key, 6 ** len(sources), hole)
    return RespectMap(f, tuple(rel for _, rel in sources), operator.eq, kind)


def _asking(m: RespectMap) -> tuple[RespectMap, list]:
    """`m` with a function that lists each argument tuple it is asked,
    and the list."""
    asked = []
    return RespectMap(lambda *args: asked.append(args) or m.function(*args), m.sources,
                      m.target_eq, m.name), asked


@settings(max_examples=400, deadline=None)
@given(_maps(), st.integers(1, 100))
def test_check_respects_matches_oracle(m, budget):
    counted, asked = _asking(m)
    outcome = _outcome(check_respects, counted, budget)
    assert outcome == _outcome(equiv_oracle.check_respects, m, budget)
    # f is asked no argument tuple that no case inside the budget uses, and
    # none twice unless some tuple raised and its cases were asked again.
    n = len(m.sources)
    side = budget if n <= 1 else int(budget ** (1 / n)) + 1
    per_source = [rel.related_pairs(side)[:side] for rel in m.sources]
    cases = itertools.islice(itertools.product(*per_source), budget)
    used = {tuple(pair[i] for pair in case) for case in cases for i in (0, 1)}
    assert set(asked) <= used
    if n and not _raises_on_any(m, asked):
        assert len(asked) == len(set(asked))


def _raises_on_any(m: RespectMap, asked: list) -> bool:
    try:
        for args in asked:
            m.function(*args)
    except _NoImage:
        return True
    return False


@pytest.mark.parametrize("images, outcome", [
    ({(1, 2): 1}, (Verdict.REFUTED, 2, ((0, 1), (0, 2)), None)),
    ({}, ("raised", "_NoImage", "f(0, 3)")),
], ids=["refuted-first", "raises"])
def test_kept_row_fails_or_raises_in_row_major_order(images, outcome):
    # Row 0's leading left argument 0 comes back in row 1, so row 0 keeps
    # its left images.  The row fails at column 1 where the images differ,
    # before its left side raises at column 2, on (0, 3); else it raises
    # there, as the row-major scan does.
    pairs = [(0, 1), (0, 2), (3, 3)]
    rel = EquivRelation("listed", operator.eq, _R.__contains__, lambda budget: pairs)

    def f(p, q):
        if (p, q) == (0, 3):
            raise _NoImage(f"f{(p, q)}")
        return images.get((p, q), 0)

    m = RespectMap(f, (rel, rel), operator.eq)
    assert _outcome(check_respects, m, 9) == _outcome(equiv_oracle.check_respects, m, 9) == outcome


def _raising_at(n: int, verdict: Callable, error: type = ValueError) -> Callable:
    """`verdict`, raising `error` on its n-th call instead: by default
    `ValueError`, as a truth test of an array with more than one element
    does."""
    calls = itertools.count(1)

    def raising(*args):
        if next(calls) == n:
            raise error(f"call {n}")
        return verdict(*args)

    return raising


@pytest.mark.parametrize("check", [
    lambda: check_respects(RespectMap(NEG_MAP.function, NEG_MAP.sources,
                                      _raising_at(50, NEG_MAP.target_eq)), 200),
    lambda: check_equivalence(EquivRelation(intrel.name, _raising_at(500, intrel.decider),
                                            intrel.carrier, intrel.related_pairs,
                                            intrel.canonicalize), 200),
], ids=["target-eq", "decider"])
def test_a_value_error_in_a_verdict_stream_propagates(check):
    # A verdict that raises ValueError is neither a pass nor the end of the
    # cases: the check raises it, as the case-by-case oracle does.
    with pytest.raises(ValueError, match="^call "):
        check()


def _mod3(decider: Callable = lambda x, y: x % 3 == y % 3, stream: bool = False,
          canonicalize: Callable | None = None) -> EquivRelation:
    """Congruence mod 3 on the naturals, over the pairs (x, x + 3)."""
    pairs = [(x, x + 3) for x in range(10)]
    related_pairs = (PairStream(lambda: [([x for x, _ in pairs], [y for _, y in pairs])])
                     if stream else lambda budget: pairs[:budget])
    return EquivRelation("mod3", decider, lambda x: isinstance(x, int) and x >= 0,
                         related_pairs, canonicalize)


def _add_stopping_on(stops: Callable) -> tuple:
    """add_pair over intrel, raising StopIteration where `stops(p, q)`, at
    budget 100."""
    def f(p, q):
        if stops(p, q):
            raise StopIteration
        return add_pair(p, q)

    return RespectMap(f, (intrel, intrel), intrel_holds), 100


def _stopped_one_argument_fill():
    def f(p):
        if p == IntPair(3, 5):
            raise StopIteration
        return p[0] - p[1]

    return RespectMap(f, (intrel,), operator.eq), 50


def _stopped_kept_pair():
    # The second check re-asks the kept pairs in one stream, and the
    # decider now stops on one of them.
    stop = set()

    def decider(x, y):
        if (x, y) in stop:
            raise StopIteration
        return x % 3 == y % 3

    rel = _mod3(decider, stream=True)
    assert check_equivalence(rel, 10).certified
    stop.add((4, 7))
    return rel, 10


def _stopped_late_form():
    # 20 is the form of 2, 5, 8 and 11 but no sampled element: a late form,
    # whose own form the canonical-related stream asks.  It stops the first
    # time.
    asked = []

    def canonicalize(x):
        if x == 20 and not asked:
            asked.append(x)
            raise StopIteration
        return 20 if x % 3 == 2 else x % 3

    return _mod3(canonicalize=canonicalize, stream=True), 10


def _canon_stopping_on_7(x):
    if x == 7:
        raise StopIteration
    return x % 3


class _StoppingForm:
    """A canonical form hashed by identity whose == raises StopIteration."""

    def __init__(self, label: int):
        self.label = label

    __hash__ = object.__hash__

    def __eq__(self, other):
        raise StopIteration


def _stopped_form_equality():
    # Every form is late and stops when compared, so the agreement pass
    # ends at its first pair; the second check reads the kept sample.
    label = lambda z: z.label if isinstance(z, _StoppingForm) else z % 3
    rel = _mod3(lambda x, y: label(x) == label(y), stream=True,
                canonicalize=lambda x: x if isinstance(x, _StoppingForm) else _StoppingForm(x % 3))
    assert _outcome(check_equivalence, rel, 10) == "stopped"
    return rel, 10


@pytest.mark.parametrize("check, make", [
    # A row of the probe's table comes up short.
    (respects2_via_commutativity,
     lambda: _add_stopping_on(lambda p, q: q == (0, 3) and p != (0, 0))),
    # Elements 5 and 2 of intrel's sample: a cell of column 2 is missing.
    (respects2_via_commutativity,
     lambda: _add_stopping_on(lambda p, q: (p, q) == ((2, 1), (0, 1)))),
    (check_respects, _stopped_one_argument_fill),
    (check_respects, lambda: (RespectMap(lambda p: p[0] - p[1], (intrel,),
                                         _raising_at(7, operator.eq, StopIteration)), 50)),
    (check_equivalence,
     lambda: (_mod3(_raising_at(15, lambda x, y: x % 3 == y % 3, StopIteration)), 10)),
    (check_equivalence, _stopped_kept_pair),
    (check_equivalence, _stopped_late_form),
    (check_equivalence, lambda: (_mod3(canonicalize=_canon_stopping_on_7), 10)),
    (check_equivalence, _stopped_form_equality),
], ids=["probe-row", "probe-column", "one-argument-fill", "target-eq", "decider", "kept-pair",
        "late-form", "canonicalizer", "form-equality"])
def test_a_stop_iteration_in_user_code_raises(check, make):
    # A C-level pass takes a StopIteration for the end of its cases, so
    # without a check it reads as a false verdict or a short table.  The
    # check raises instead, as StopIteration or, as a generator turns it,
    # RuntimeError, where the case-by-case oracle raises StopIteration.
    oracle = getattr(equiv_oracle, check.__name__)
    assert _outcome(oracle, *make()) == _outcome(check, *make()) == "stopped"


@settings(max_examples=150, deadline=None)
@given(_maps(StopIteration), _function_tables(StopIteration), st.integers(1, 100))
def test_maps_that_stop_match_oracle(m, m2, budget):
    assert _outcome(check_respects, m, budget) == _outcome(equiv_oracle.check_respects, m, budget)
    assert _outcome(respects2_via_commutativity, m2, budget) == \
        _outcome(equiv_oracle.respects2_via_commutativity, m2, budget)


@settings(max_examples=150, deadline=None)
@given(_finite_relations(StopIteration), st.integers(1, 60))
def test_deciders_that_stop_match_oracle(rel, budget):
    pairs = list(rel.related_pairs(60))
    streamed = EquivRelation(rel.name, rel.decider, rel.carrier,
                             PairStream(lambda: [([x for x, _ in pairs], [y for _, y in pairs])]),
                             rel.canonicalize)
    for r in (rel, streamed, streamed):
        assert _outcome(check_equivalence, r, budget) == \
            _outcome(equiv_oracle.check_equivalence, rel, budget)


@settings(max_examples=300, deadline=None)
@given(_function_tables(), st.integers(1, 100))
def test_respects2_via_commutativity_matches_oracle(m, budget):
    counted, asked = _asking(m)
    outcome = _outcome(respects2_via_commutativity, counted, budget)
    assert outcome == _outcome(equiv_oracle.respects2_via_commutativity, m, budget)
    # The probe and the first-argument cases share one table; the full
    # check they may fall back on asks afresh.
    if not _raises_on_any(m, asked) and "not commutative" not in (outcome[3] or ""):
        assert len(asked) == len(set(asked))


@settings(max_examples=300, deadline=None)
@given(_function_tables(), st.sampled_from([operator.eq, operator.ne]), st.integers(1, 100))
def test_respects2_via_commutativity_stays_in_budget(m, target_eq, budget):
    # operator.ne is not reflexive, so the probe can fail on its first case
    # and leave no budget for the full check.  A map that raises reports
    # nothing.
    m = RespectMap(m.function, m.sources, target_eq, m.name)
    outcome = _outcome(respects2_via_commutativity, m, budget)
    assert outcome[0] == "raised" or outcome[1] <= budget


@st.composite
def _wrappings(draw):
    """Which of the up to 80 generated elements of a relation to make
    one-item lists: all of them, or a drawn mix."""
    if draw(st.booleans()):
        return [True] * 80
    return draw(st.lists(st.booleans(), min_size=80, max_size=80))


def _unwrap(z):
    return z[0] if isinstance(z, list) else z


def _wrapped(rel: EquivRelation, wrap: list, stream: bool) -> EquivRelation:
    """`rel` with its k-th generated element made a one-item list, which is
    unhashable, where wrap[k], over a `PairStream` if `stream`.  The
    decider, carrier and canonicalizer read through a list, and a list's
    form is a list."""
    pairs = [tuple([z] if wrap[2 * k + i] else z for i, z in enumerate(pair))
             for k, pair in enumerate(rel.related_pairs(60))]
    canon = rel.canonicalize
    return EquivRelation(
        rel.name, lambda x, y: rel.decider(_unwrap(x), _unwrap(y)),
        lambda x: rel.carrier(_unwrap(x)),
        PairStream(lambda: [([x for x, _ in pairs], [y for _, y in pairs])]) if stream
        else lambda budget: pairs,
        None if canon is None else lambda x: [canon(x[0])] if isinstance(x, list) else canon(x))


def _wrapped_map(m: RespectMap, wrap: list, stream: bool) -> RespectMap:
    """`m` over its sources `_wrapped`, each once, reading through lists."""
    wrapped = {id(rel): _wrapped(rel, wrap, stream) for rel in m.sources}
    return RespectMap(lambda *args: m.function(*map(_unwrap, args)),
                      tuple(wrapped[id(rel)] for rel in m.sources), m.target_eq, m.name)


def _outcome_or_type_error(check, *args):
    """`_outcome`, or the `TypeError` the check raised."""
    try:
        return _outcome(check, *args)
    except TypeError as exc:
        return "raised", "TypeError", str(exc)


@settings(max_examples=200, deadline=None)
@given(_finite_relations(), _maps(), _function_tables(), _wrappings(), st.integers(1, 100))
def test_unhashable_elements_match_oracle(rel, m, m2, wrap, budget):
    # An unhashable element is an element of its own at each slot it
    # fills, in every check.  check_equivalence and the shortcut, which
    # read the sample as distinct elements, raise TypeError where the
    # oracle does: check_equivalence after the generator's contract.
    # Each check runs twice on sources over a PairStream, whose kept
    # sample then holds the lists.
    for stream in (False, True):
        r, mw, m2w = _wrapped(rel, wrap, stream), _wrapped_map(m, wrap, stream), \
            _wrapped_map(m2, wrap, stream)
        for _ in range(1 + stream):
            for check, args in ((check_equivalence, (r, budget)), (check_respects, (mw, budget)),
                                (check_respects, (m2w, budget)),
                                (respects2_via_commutativity, (m2w, budget))):
                oracle = getattr(equiv_oracle, check.__name__)
                assert _outcome_or_type_error(check, *args) == \
                    _outcome_or_type_error(oracle, *args)


# The kept relations the image tables are filled over: their samples, and
# so the tables' positions, carry over from one example to the next.
_KEPT_RELATIONS = [intrel, ratrel, msg_relation(4)]


def _early_elements(rel, n: int) -> list:
    """The first `n` distinct elements of `rel`'s sample."""
    return equiv_oracle._sample_elements(rel, rel.related_pairs(60))[:n]


@st.composite
def _kept_maps(draw):
    """A map of 1-3 arguments, each over intrel, ratrel or the bound-4
    message relation: a table on a checksum of its arguments' canonical
    forms (it respects the relations) or of the arguments (it may refute),
    which may raise on one chosen early element of one source."""
    sources = tuple(draw(st.lists(st.sampled_from(_KEPT_RELATIONS), min_size=1, max_size=3)))
    respecting = draw(st.booleans())
    table = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    poison = draw(st.none() | st.sampled_from(sources).flatmap(
        lambda rel: st.sampled_from(_early_elements(rel, 20))))

    def f(*args):
        if poison is not None and poison in args:
            raise _NoImage(f"f{args!r}")
        key = tuple(map(lambda rel, a: rel.canonicalize(a), sources, args)) if respecting else args
        return table[zlib.crc32(repr(key).encode()) % len(table)]

    return RespectMap(f, sources, operator.eq, "respecting" if respecting else "any")


@settings(max_examples=300, deadline=None)
@given(_kept_maps(), st.integers(1, 300))
def test_kept_relation_maps_match_oracle(m, budget):
    # The image tables change how often f is asked, never the report or
    # the exception; a two-argument map over one relation also takes the
    # commutativity shortcut.
    assert _outcome(check_respects, m, budget) == _outcome(equiv_oracle.check_respects, m, budget)
    if len(m.sources) == 2 and m.sources[0] is m.sources[1]:
        assert _outcome(respects2_via_commutativity, m, budget) == \
            _outcome(equiv_oracle.respects2_via_commutativity, m, budget)


@st.composite
def _tampered_relations(draw):
    """intrel, ratrel or the bound-4 message relation over the same pair
    stream, with a decider that also relates two chosen early elements,
    both ways or one way, or raises on them; the cube of sampled elements
    then meets a relation that need not be transitive or symmetric."""
    base = draw(st.sampled_from(_KEPT_RELATIONS))
    early = _early_elements(base, 10)
    a, b = draw(st.sampled_from(early)), draw(st.sampled_from(early))
    how = draw(st.sampled_from(["both", "one", "raise"]))

    def decider(x, y):
        if (x == a and y == b) or (how != "one" and x == b and y == a):
            if how == "raise":
                raise _OutsideCarrier(f"decider({x!r}, {y!r})")
            return True
        return base.decider(x, y)

    return EquivRelation(base.name, decider, base.carrier, base.related_pairs, base.canonicalize)


@settings(max_examples=200, deadline=None)
@given(_tampered_relations(), st.integers(1, 300))
def test_tampered_decider_matches_oracle(rel, budget):
    assert _outcome(check_equivalence, rel, budget) == \
        _outcome(equiv_oracle.check_equivalence, rel, budget)


def _counted(rel):
    """A copy of `rel` over the same pairs whose decider counts its calls,
    and the counter."""
    calls = [0]

    def decider(x, y):
        calls[0] += 1
        return rel.decider(x, y)

    return EquivRelation(rel.name, decider, rel.carrier, rel.related_pairs,
                         rel.canonicalize), calls


@pytest.mark.parametrize("rel, budget, asks, half_asks", [
    (intrel, 20000, 65677, 33632),
    (ratrel, 20000, 80459, 40435),
    (msg_relation(6), 2000, 7869, 4152),
], ids=["intrel", "ratrel", "msgrel-bound-6"])
def test_a_kept_sample_drops_and_adds_no_decider_ask(rel, budget, asks, half_asks):
    # The kept sample spares the carrier, the canonicalizer and the chain
    # walk, never a decider ask: a first call, a repeat, half the budget
    # and the full budget again each ask as often as a fresh sample would.
    counted, calls = _counted(rel)
    for b, expected in ((budget, asks), (budget, asks), (budget // 2, half_asks), (budget, asks)):
        calls[0] = 0
        check_equivalence(counted, b)
        assert calls[0] == expected


def _transitivity_cases(pairs: list, budget: int) -> list:
    """The oracle's transitivity cases on `pairs` as pair positions (k, m):
    each pair k with each pair m whose left is pair k's right, in order, the
    first `budget` of them."""
    by_first: dict = {}
    for m, (x, _) in enumerate(pairs):
        by_first.setdefault(x, []).append(m)
    cases = ((k, m) for k, (_, y) in enumerate(pairs) for m in by_first.get(y, ()))
    return list(itertools.islice(cases, budget))


@pytest.mark.parametrize("rel", [intrel, ratrel], ids=["intrel", "ratrel"])
def test_transitivity_cases_are_kept_for_the_last_budget(rel, monkeypatch):
    # A repeat at the same budget walks no chain; another budget walks
    # them again and replaces the kept columns, which no check grows.
    walks = []
    chains = runner._chains
    monkeypatch.setattr(runner, "_chains", lambda *args: walks.append(args) or chains(*args))
    fresh = EquivRelation(rel.name, rel.decider, rel.carrier, rel.related_pairs,
                          rel.canonicalize)
    kept = []
    for budget, walked in ((2000, 1), (2000, 0), (1000, 1), (2000, 1), (2000, 0)):
        del walks[:]
        assert check_equivalence(fresh, budget) == equiv_oracle.check_equivalence(rel, budget)
        assert len(walks) == walked
        served, ks, ms = fresh._sample.chains
        assert served == budget and len(ks) == len(ms) <= budget
        assert list(zip(ks, ms)) == _transitivity_cases(rel.related_pairs(budget), budget)
        if walked:
            assert all(ks is not old for old, _ in kept)
            kept.append((ks, len(ks)))
    assert [len(ks) for ks, _ in kept] == [length for _, length in kept]


def _fresh_transitivity_case(rel, budget: int) -> tuple:
    """A transitivity case (x, y, z) of `rel` at `budget`, past the first
    half of them, whose conclusion (x, z) no earlier case of the pairs,
    their symmetry or reflexivity asks."""
    pairs = rel.related_pairs(budget)
    asked = set(pairs) | {(y, x) for x, y in pairs} | {(x, x) for pair in pairs for x in pair}
    cases = _transitivity_cases(pairs, budget)
    for t, (k, m) in enumerate(cases):
        x, y, z = pairs[k][0], pairs[k][1], pairs[m][1]
        if t >= len(cases) // 2 and (x, z) not in asked:
            return x, y, z
        asked.add((x, z))
    raise AssertionError("no fresh transitivity case")


def _path_partition(canonical: bool) -> EquivRelation:
    """Ten classes of nine consecutive ints over a fresh `PairStream`: each
    class a path of pairs (a, a + 1) and (a + 1, a), so most transitivity
    conclusions are no generated pair; with the least of its class as each
    element's canonical form, or no canonicalizer."""
    pairs = [p for a in range(90) if a % 9 < 8 for p in ((a, a + 1), (a + 1, a))]
    return EquivRelation(
        name="paths",
        decider=lambda x, y: x // 9 == y // 9,
        carrier=lambda x: x in range(90),
        related_pairs=PairStream(lambda: [([x for x, _ in pairs], [y for _, y in pairs])]),
        canonicalize=(lambda x: x - x % 9) if canonical else None,
    )


@pytest.mark.parametrize("other", [50, 1200])
@pytest.mark.parametrize("how", ["fail", "raise"])
@pytest.mark.parametrize("make, budget", [
    (partial(_path_partition, False), 200), (partial(_path_partition, True), 200),
    (lambda: EquivRelation(ratrel.name, ratrel.decider, ratrel.carrier,
                           PairStream(ratrel.related_pairs.tiers), ratrel.canonicalize), 600),
], ids=["paths", "paths-canonical", "ratrel"])
def test_tampered_transitivity_case_matches_oracle_across_budgets(make, budget, how, other):
    # A decider that fails, or raises, at one transitivity case of a check
    # at `budget` meets it there; the kept cases of another budget asked in
    # between leave the report of `budget` asked again unchanged.
    rel = make()
    x, y, z = _fresh_transitivity_case(rel, budget)

    def decider(u, v):
        if u == x and v == z:
            if how == "raise":
                raise _OutsideCarrier(f"decider({u!r}, {v!r})")
            return False
        return rel.decider(u, v)

    tampered = EquivRelation(rel.name, decider, rel.carrier, rel.related_pairs, rel.canonicalize)
    outcomes = [_outcome(check_equivalence, tampered, b) for b in (budget, other, budget)]
    assert outcomes == [_outcome(equiv_oracle.check_equivalence, tampered, b)
                        for b in (budget, other, budget)]
    if how == "raise":
        assert outcomes[0] == ("raised", "_OutsideCarrier", f"decider({x!r}, {z!r})")
    else:
        assert outcomes[0][2:] == ("transitivity", (x, y, z))


# (relation, its tier source, the reference generator of its pairs)
NUMERIC_STREAMS = [
    pytest.param(intrel, integers._shift_pairs, pair_oracles.shift_pairs, id="intrel"),
    pytest.param(ratrel, rationals._scaled_pairs, pair_oracles.scaled_pairs, id="ratrel"),
]


class TestPairStream:
    @pytest.mark.parametrize("rel, source, reference", NUMERIC_STREAMS)
    def test_prefix_matches_reference(self, rel, source, reference):
        # Budgets on both sides of a tier's end, asked in increasing and
        # then in decreasing order, of the relation and of a fresh stream.
        sizes = (len(xs) for xs, _ in source())
        edge = next(end for end in itertools.accumulate(sizes) if end >= 1000)
        budgets = [1, edge - 1, edge, edge + 1, 20_000]
        expected = list(itertools.islice(reference(), 20_000))
        fresh = PairStream(source)
        for budget in budgets + budgets[::-1]:
            assert rel.related_pairs(budget) == expected[:budget]
            assert fresh(budget) == expected[:budget]

    @pytest.mark.parametrize("rel, source, reference", NUMERIC_STREAMS)
    def test_kept_request_pulls_no_tier(self, rel, source, reference):
        pulled = []

        def counted():
            for xs, ys in source():
                pulled.append(len(xs))
                yield xs, ys

        stream = PairStream(counted)
        stream(500)
        kept = sum(pulled)
        assert kept - pulled[-1] < 500 <= kept  # through the tier 500 ends in
        for budget in (500, 499, 1, 0, kept):
            stream(budget)
        assert sum(pulled) == kept
        stream(kept + 1)
        assert sum(pulled) - pulled[-1] == kept  # one tier more

    @pytest.mark.parametrize("rel", [intrel, ratrel, msgrel], ids=["intrel", "ratrel", "msgrel"])
    def test_each_call_returns_a_new_list(self, rel):
        first = rel.related_pairs(50)
        expected = list(first)
        first[0] = None
        del first[10:]
        assert rel.related_pairs(50) == expected

    @pytest.mark.parametrize("rel, source, reference", NUMERIC_STREAMS)
    def test_concurrent_requests_share_one_stream(self, rel, source, reference):
        # As for the message stream: requests from many threads grow one
        # fresh stream, and each gets the exact prefix.
        expected = list(itertools.islice(reference(), 20_000))
        budgets = [1, 10, 100, 1000, 5000, 20_000] * 2
        stream = PairStream(source)
        results = [None] * len(budgets)

        def request(i):
            results[i] = stream(budgets[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=request, args=(i,)) for i in range(len(budgets))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected[:budget] for budget in budgets]

    @pytest.mark.parametrize("rel, source, reference", NUMERIC_STREAMS)
    def test_concurrent_checks_share_one_sample(self, rel, source, reference):
        # Threads checking one fresh relation at different budgets grow
        # one kept sample, and each gets the single-threaded report.  The
        # pairs are generated first and the threads start together, so
        # they race on the sample; the congruence checks read its positions
        # while the equivalence checks place and chain its pairs.
        budgets = [3000, 2999, 1000, 2]
        one, two = {"intrel": (NEG_MAP, ADD_MAP),
                    "ratrel": (rationals.RAT_NEG_MAP, RAT_ADD_MAP)}[rel.name]

        def checks(r):
            neg = RespectMap(one.function, (r,), one.target_eq)
            add = RespectMap(two.function, (r, r), two.target_eq)
            return [partial(check_equivalence, r, budget) for budget in budgets] + [
                partial(check_respects, neg, 2500), partial(check_respects, add, 2999),
                partial(respects2_via_commutativity, add, 3000)]

        expected = [_outcome(check) for check in checks(rel)]
        for _ in range(10):
            fresh = EquivRelation(rel.name, rel.decider, rel.carrier, PairStream(source),
                                  rel.canonicalize)
            fresh.related_pairs(max(budgets))
            jobs = checks(fresh)
            results = [None] * len(jobs)
            start = threading.Barrier(len(jobs))

            def check(i):
                start.wait(timeout=60)
                results[i] = _outcome(jobs[i])

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=check, args=(i,)) for i in range(len(jobs))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                    assert not t.is_alive()
            finally:
                sys.setswitchinterval(interval)
            assert results == expected
            assert [_outcome(check) for check in jobs] == expected

    @pytest.mark.parametrize("rel", [intrel, ratrel, msg_relation(3)],
                             ids=["intrel", "ratrel", "msgrel-bound-3"])
    def test_zero_and_negative_budgets(self, rel):
        assert rel.related_pairs(0) == []
        assert len(rel.related_pairs(20)) == 20
        with pytest.raises(ValueError):
            rel.related_pairs(-5)

    @pytest.mark.parametrize("rel, source, reference", NUMERIC_STREAMS)
    def test_copies_start_empty_and_give_the_same_pairs(self, rel, source, reference):
        kept = rel.related_pairs(1000)
        for twin in (copy.deepcopy(rel.related_pairs), pickle.loads(pickle.dumps(rel.related_pairs))):
            assert twin is not rel.related_pairs and twin == rel.related_pairs
            assert twin._lefts == []
            assert twin(1000) == kept

    def test_tiers_that_end(self):
        stream = PairStream(lambda: [([1], [1]), ([], []), ([2, 3], [3, 2])])
        assert stream(2) == [(1, 1), (2, 3)]
        assert stream(10) == stream(3) == [(1, 1), (2, 3), (3, 2)]

    @pytest.mark.parametrize("failure", [MemoryError, KeyboardInterrupt])
    def test_a_failed_source_fails_every_request_past_the_kept_pairs(self, failure):
        def source():
            yield [1], [1]
            raise failure

        stream = PairStream(source)
        rel = EquivRelation("failing", operator.eq, lambda x: isinstance(x, int), stream)
        rmap = RespectMap(lambda x: x, (rel,), operator.eq, name="identity")
        with pytest.raises(failure):
            stream(5)
        for request in (partial(stream, 5), partial(stream.columns, 2),
                        partial(check_equivalence, rel, 5), partial(check_respects, rmap, 5)):
            with pytest.raises(RuntimeError) as exc:
                request()
            assert isinstance(exc.value.__cause__, failure)
        assert stream(1) == [(1, 1)]  # the kept pairs
        assert stream.columns(0) == ([], [])
