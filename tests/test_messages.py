"""The message algebra: rewriting, the closure oracle, and the quotient."""

import bisect
import copy
import gc
import hashlib
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import term_strategy
from msg_oracles import (
    MsgRule,
    closure_classes,
    closure_oracle,
    closure_oracle_naive,
    enumerate_terms,
    hash_recursive,
    is_normal,
    listed_universe,
    normalize_outermost,
    repr_recursive,
    rule_instances,
    size,
    sorted_pairs_naive,
    universe_size,
    well_formed_recursive,
)
from quotients import messages
from quotients.equiv import (
    RespectMap,
    Verdict,
    check_equivalence,
    check_respects,
    revalidate_counterexample,
)
from quotients.errors import UniverseTooLargeError
from quotients.messages import (
    FREEDISCRIM_MAP,
    FREEDISCRIM_TRUNCATED_MAP,
    FREELEFT_MAP,
    FREENONCES_MAP,
    FREERIGHT_MAP,
    MPAIR_MAP,
    Crypt,
    Decrypt,
    FreeMsg,
    MPair,
    Msg,
    Nonce,
    crypt,
    crypt_map,
    decrypt,
    decrypt_map,
    discrim,
    free_maps,
    freediscrim,
    freediscrim_truncated,
    freeleft,
    freenonces,
    freeright,
    left,
    mpair,
    msg,
    msg_eq,
    msg_relation,
    msgrel,
    nonce,
    nonces,
    normalize,
    right,
)
from quotients.sexpr import parse_term, print_term

N, M, C, D = Nonce, MPair, Crypt, Decrypt
# Keys and nonces, good and bad, for terms that need not be well formed.
_LOOSE_VALUES = st.one_of(st.integers(-2, 3), st.booleans(), st.sampled_from([None, "1", 1.0]))


class TestNormalize:
    def test_cancellation(self):
        assert normalize(C(1, D(1, N(5)))) == N(5)

    def test_no_redex(self):
        assert normalize(N(5)) == N(5)

    def test_nested_innermost(self):
        t = D(0, C(0, M(N(1), C(2, D(2, N(3))))))
        assert normalize(t) == M(N(1), N(3))

    @given(term_strategy())
    def test_idempotent_and_shrinking(self, t):
        nf = normalize(t)
        assert normalize(nf) == nf
        assert is_normal(nf)
        assert size(nf) <= size(t)

    @given(term_strategy().filter(is_normal))
    def test_normal_term_is_kept(self, t):
        assert normalize(t) is t

    @given(term_strategy())
    def test_strategy_independence(self, t):
        assert normalize(t) == normalize_outermost(t)

    def test_strategy_independence_on_universe(self):
        for t in enumerate_terms(5):
            assert normalize(t) == normalize_outermost(t)

    def test_result_related_to_input_per_oracle(self):
        oracle = closure_oracle(4)
        for t in enumerate_terms(4):
            assert (t, normalize(t)) in oracle


def _subterms(t):
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, MPair):
            stack += (t.left, t.right)
        elif not isinstance(t, Nonce):
            stack.append(t.body)


class TestNormalFormCache:
    """`normalize` remembers each term's normal form on the term."""

    @given(term_strategy(), st.integers(0, 2))
    def test_cached_results_are_normal_forms(self, t, k):
        # `c` is shared: under a pair it stays, under `Decrypt(k, c)` it
        # cancels, so a wrong mark on it would show in one of the two.
        c = C(k, t)
        for top in (t, M(c, D(k, c))):
            nf = normalize(top)
            assert normalize(top) is nf
            assert normalize(nf) is nf
            for s in _subterms(top):
                assert normalize(s) == normalize_outermost(s)
                assert normalize(normalize(s)) is normalize(s)

    def test_cache_makes_no_cycles(self):
        # A normal node marks itself with True, not with itself, and a
        # normal form never refers back to its term: dropping a normalized
        # term frees it by reference counting alone.  The collector keeps
        # what it finds (DEBUG_SAVEALL), and only terms among it count, so
        # other garbage made meanwhile does not fail the test.
        text = "(mpair (crypt 0 (decrypt 0 (nonce 1))) (mpair (nonce 2) (crypt 1 (nonce 3))))"
        gc.collect()
        flags, kept = gc.get_debug(), len(gc.garbage)
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            t = parse_term(text)
            assert normalize(t) == M(N(1), M(N(2), C(1, N(3))))
            assert normalize(t.right) is t.right
            del t
            gc.collect()
            assert not [o for o in gc.garbage[kept:] if isinstance(o, FreeMsg)]
        finally:
            gc.set_debug(flags)
            del gc.garbage[kept:]
            gc.enable()


class TestMsgEq:
    def test_examples(self):
        assert msg_eq(C(1, D(1, N(5))), N(5))
        assert not msg_eq(N(1), N(2))
        assert not msg_eq(D(2, N(0)), D(3, N(0)))

    @given(term_strategy(), term_strategy())
    def test_agrees_with_normal_forms(self, u, v):
        assert msg_eq(u, v) == (normalize(u) == normalize(v))


class TestUniverse:
    def test_sizes_by_recurrence(self):
        for bound in range(1, 6):
            assert universe_size(bound) == len(enumerate_terms(bound))
        assert universe_size(3, (0,), (0,)) == 8

    def test_graded_and_distinct(self):
        terms = enumerate_terms(4)
        assert len(set(terms)) == len(terms)
        sizes = [size(t) for t in terms]
        assert sizes == sorted(sizes)

    def test_cap_is_enforced(self):
        with pytest.raises(UniverseTooLargeError) as exc:
            enumerate_terms(9)
        assert exc.value.universe_size == universe_size(9)
        with pytest.raises(ValueError):
            enumerate_terms(0)

    @pytest.mark.parametrize("keys, nonces", [((0, 1), (0, 1)), ((0,), (0, 1, 2))],
                             ids=["default-domains", "one-key-three-nonces"])
    @pytest.mark.parametrize("bound", range(1, 7))
    def test_shapes_and_size_starts(self, bound, keys, nonces):
        shapes, starts, _ = listed_universe(bound, keys, nonces)
        terms = enumerate_terms(bound, keys, nonces)
        assert len(shapes) == len(terms)
        rebuild = {
            0: lambda k, b: C(k, terms[b]),
            1: lambda k, b: D(k, terms[b]),
            2: lambda l, r: M(terms[l], terms[r]),
            3: N,
        }
        for i, (t, (tag, *fields)) in enumerate(zip(terms, shapes)):
            assert rebuild[tag](*fields) == t
            children = fields if tag == 2 else fields[1:]
            assert all(c < i for c in children)
        assert starts == [0, *messages._running_sizes(bound, keys, nonces)]
        for s in range(1, bound + 1):
            assert {size(t) for t in terms[starts[s - 1]:starts[s]]} <= {s}


class TestTermHash:
    def test_constructors_hash_apart(self):
        terms = enumerate_terms(6)
        assert len(set(map(hash, terms))) == len(terms)
        for x in (N(0), M(N(0), N(1)), C(1, N(0))):
            assert len({hash(N(1)), hash(M(N(1), x)), hash(C(1, x)), hash(D(1, x))}) == 4

    @given(term_strategy())
    def test_equal_terms_hash_equal(self, t):
        copy = parse_term(print_term(t))
        assert copy == t and copy is not t
        assert hash(copy) == hash(t)

    @given(term_strategy())
    def test_hash_matches_recursive_reference(self, t):
        expected = hash_recursive(t)
        assert hash(t) == expected
        assert hash(t) == expected  # read back from the term

    def test_universe_hashes_match_recursive_reference(self):
        # Parts hashed before their parents, and parents first.
        terms = enumerate_terms(5)
        assert [hash(t) for t in terms] == [hash_recursive(t) for t in terms]
        terms = enumerate_terms(5)
        assert [hash(t) for t in reversed(terms)] == [hash_recursive(t) for t in reversed(terms)]
        # A part that is not a term hashes as itself.
        for t in (N("1"), C(None, N(True)), M(N(0), 1.5), D(1, M(N(0), N(0)))):
            assert hash(t) == hash_recursive(t)

    def test_deep_terms(self):
        # A 100,000-deep crypt chain and pair spine, each built twice:
        # hashed without recursion, and equal terms hash equal.
        for build in (_deep_chain, _deep_spine):
            u, v, w = build(0), build(0), build(1)
            assert hash(u) == hash(v) != hash(w)
            assert hash(msg(u)) == hash(msg(v))


def _deep_chain(leaf: int, depth: int = 100_000) -> FreeMsg:
    t = N(leaf)
    for _ in range(depth):
        t = C(0, t)
    return t


def _deep_spine(leaf: int, depth: int = 100_000) -> FreeMsg:
    t = N(leaf)
    for _ in range(depth):
        t = M(t, N(1))
    return t


class TestTermRepr:
    @given(term_strategy())
    def test_repr_matches_recursive_reference(self, t):
        assert repr(t) == repr_recursive(t)

    def test_parts_that_are_not_terms(self):
        for t in (N("1"), C(None, N(True)), M(N(0), 1.5), D(1, M(N(0), N(0)))):
            assert repr(t) == repr_recursive(t)
        assert repr(C(None, N("1"))) == "Crypt(key=None, body=Nonce(value='1'))"

    def test_deep_terms(self):
        n = 100_000
        assert repr(_deep_chain(7)) == "Crypt(key=0, body=" * n + "Nonce(value=7)" + ")" * n
        assert repr(_deep_spine(0)) == (
            "MPair(left=" * n + "Nonce(value=0)" + ", right=Nonce(value=1))" * n)


class TestTermEq:
    @given(term_strategy(), term_strategy())
    def test_eq_is_structural(self, u, v):
        same = print_term(u) == print_term(v)
        assert (u == v) is same and (u != v) is not same
        copy = parse_term(print_term(u))
        assert copy == u and not copy != u

    def test_other_types_are_unequal(self):
        assert N(1) != C(1, N(1)) and M(N(1), N(1)) != D(1, N(1))
        assert N(1) != 1 and not N(1) == (3, 1)

    def test_deep_chains(self):
        # Two 100,000-deep crypt chains built apart, and a third whose
        # innermost key differs; == walks them without recursion.
        def chain(inner_key):
            t = C(inner_key, N(7))
            for _ in range(100_000):
                t = C(0, t)
            return t
        u, v, w = chain(0), chain(0), chain(1)
        assert u == v and not u != v
        assert u != w and not u == w


class TestClosureOracle:
    def test_contains_cancellation_pair(self):
        oracle = closure_oracle(3, (0,), (0,))
        assert (C(0, D(0, N(0))), N(0)) in oracle

    def test_reflexive_on_universe(self):
        oracle = closure_oracle(3, (0,), (0,))
        for t in enumerate_terms(3, (0,), (0,)):
            assert (t, t) in oracle

    def test_symmetric(self):
        oracle = closure_oracle(3)
        for u, v in oracle:
            assert (v, u) in oracle

    def test_frozen_counts_small_domain(self):
        classes = closure_classes(3, (0,), (0,))
        assert sum(map(len, classes)) == 8
        assert len(classes) == 6
        oracle = closure_oracle(3, (0,), (0,))
        assert len(oracle) == 14

    @pytest.mark.parametrize(
        "bound,keys,nonces",
        [(2, (0, 1), (0, 1)), (3, (0, 1), (0, 1)), (4, (0,), (0, 1))],
    )
    def test_engine_matches_naive_fixpoint(self, bound, keys, nonces):
        assert closure_oracle(bound, keys, nonces) == closure_oracle_naive(bound, keys, nonces)

    def test_axiom_rules_fire_without_premises(self):
        terms = enumerate_terms(3, (0,), (0,))
        assert (C(0, D(0, N(0))), N(0)) in rule_instances(MsgRule.CD, set(), terms, (0,))
        assert (D(0, C(0, N(0))), N(0)) in rule_instances(MsgRule.DC, set(), terms, (0,))
        assert (N(0), N(0)) in rule_instances(MsgRule.NONCE, set(), terms, (0,))

    def test_closure_is_closed_under_every_rule(self):
        terms = enumerate_terms(3)
        oracle = closure_oracle(3)
        for rule in MsgRule:
            assert rule_instances(rule, oracle, terms, (0, 1)) <= oracle

    def test_agrees_with_rewriting_decision(self):
        # The central claim at unit scale; the acceptance suite repeats it
        # on the full size-7 universe.
        terms = enumerate_terms(4)
        classes = closure_classes(4)
        labels = {t: i for i, members in enumerate(classes) for t in members}
        for u in terms[:60]:
            for v in terms[:60]:
                assert (labels[u] == labels[v]) == msg_eq(u, v)
        by_nf = {}
        for t in terms:
            by_nf.setdefault(normalize(t), set()).add(t)
        assert set(map(frozenset, classes)) == set(map(frozenset, by_nf.values()))

    def test_classes_partition_the_universe(self):
        universe = enumerate_terms(5)
        position = {t: i for i, t in enumerate(universe)}.__getitem__
        classes = closure_classes(5)
        members = [t for c in classes for t in c]
        assert len(classes) == 726
        assert sum(map(len, classes)) == 1134
        # Disjoint and covering: the members are the universe, each once.
        assert sorted(members, key=position) == universe
        # Members in universe order, classes in the order of their first members.
        assert all(list(c) == sorted(c, key=position) for c in classes)
        assert [c[0] for c in classes] == sorted((c[0] for c in classes), key=position)

    def test_closure_out_of_size_order_raises(self):
        # Listed out of size order, crypt 0 (crypt 0 (decrypt 0 (decrypt 0 n)))
        # comes before crypt 0 (decrypt 0 n).  The latter's seed joins n's
        # class, and its signature then meets the former's: a union of two
        # older classes, which one pass cannot finish, so the closure raises
        # rather than return a partition that may not be closed.
        keys, nonces = (0,), (0,)
        shapes, _, _ = listed_universe(5, keys, nonces)
        index = {t: i for i, t in enumerate(enumerate_terms(5, keys, nonces))}

        def children(shape):
            return shape[1:] if shape[0] == 2 else shape[2:]

        placed: dict[int, int] = {}  # universe index -> index in the new order

        def place(i):
            for child in children(shapes[i]):
                place(child)
            placed.setdefault(i, len(placed))

        place(index[C(0, C(0, D(0, D(0, N(0)))))])
        for i in range(len(shapes)):
            place(i)
        assert list(placed) != sorted(placed)
        order = [None] * len(shapes)
        for i, k in placed.items():
            shape = shapes[i]
            kept = len(shape) - len(children(shape))
            order[k] = (*shape[:kept], *(placed[c] for c in children(shape)))
        with pytest.raises(RuntimeError, match="merges two older classes"):
            messages._closure(order, [], {}, len(order))

    def test_bound6_partition_is_pinned(self):
        # Every class, member and order of the default bound-6 partition;
        # the pair stream and `oracle-msgrel` are built on it.
        classes = closure_classes(6)
        text = "\n".join(" ".join(map(print_term, c)) for c in classes)
        assert len(classes) == 3534
        assert sum(map(len, classes)) == 6062
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "65d1b7a6f463fc505d2efd4ff05b1509ca582674994d048b6f41f67e9aa79f48"
        )

    @pytest.mark.parametrize("bound, keys, nonces", [(6, (0, 1), (0, 1)), (4, (1, 0), (2,))])
    def test_class_sizes_build_no_term(self, bound, keys, nonces, monkeypatch):
        # `oracle-msgrel` counts classes this way.
        expected = [len(c) for c in closure_classes(bound, keys, nonces)]
        monkeypatch.setattr(messages, "_build", None)  # building a term would raise
        assert messages.class_sizes(bound, keys, nonces) == expected

    @pytest.mark.parametrize("bound, keys, nonces", [
        (8, (0, 1), (0, 1)), (7, (0,), (0, 1, 2)), (7, (0, 1, 2), (0,)),
        (6, (0, 1, 2), (0, 1, 2)), (9, (0,), (0,)),
    ])
    def test_a_root_is_the_only_member_of_its_size(self, bound, keys, nonces):
        # `_layers` files a class's root alone at its size and every other
        # member with a larger size group.
        _, starts, parent = listed_universe(bound, keys, nonces)
        sizes = [bisect.bisect_right(starts, i) for i in range(len(parent))]
        assert any(root != i for i, root in enumerate(parent))
        assert all(sizes[root] < sizes[i] for i, root in enumerate(parent) if root != i)


class TestFreeFunctions:
    def test_freenonces(self):
        assert freenonces(N(3)) == {3}
        assert freenonces(M(N(1), N(2))) == {1, 2}
        assert freenonces(D(9, N(4))) == {4}

    def test_freeleft(self):
        assert freeleft(M(N(1), N(2))) == N(1)
        assert freeleft(N(7)) == N(7)
        assert freeleft(C(3, M(N(1), N(2)))) == N(1)

    def test_freeright(self):
        assert freeright(M(N(1), N(2))) == N(2)
        assert freeright(N(7)) == N(7)
        assert freeright(D(3, M(N(1), N(2)))) == N(2)

    def test_freediscrim(self):
        assert freediscrim(N(0)) == 0
        assert freediscrim(M(N(1), N(2))) == 1
        assert freediscrim(C(3, N(0))) == 2
        assert freediscrim(D(3, N(0))) == -2

    def test_freediscrim_truncated_folds_inside_out(self):
        assert freediscrim_truncated(C(0, D(0, N(0)))) == 2
        assert freediscrim_truncated(D(0, C(0, N(0)))) == 0
        assert freediscrim_truncated(C(1, D(0, D(0, M(N(0), N(1)))))) == 2

    def test_deep_wrapper_chain(self):
        # 100,000 wrappers, innermost first: five decryptions truncate at 0,
        # then crypt, crypt, decrypt repeated.  Only the free functions run
        # on the term: ==, hash and printing would recurse through it.
        core = M(N(1), N(2))
        kinds = [D] * 5 + [C, C, D] * 33_331 + [C] * 2
        t = core
        for kind in kinds:
            t = kind(0, t)
        truncated = 1
        for kind in kinds:
            truncated = truncated + 2 if kind is C else max(truncated - 2, 0)
        assert freeleft(t) is core.left and freeright(t) is core.right
        assert freediscrim(t) == 1 + 2 * kinds.count(C) - 2 * kinds.count(D)
        assert freediscrim_truncated(t) == truncated == 2 * 33_331 + 4

    def test_deep_freenonces(self):
        # A 100,000-deep crypt chain and a 100,000-deep left-nested pair
        # spine, built in loops; ==, hash and printing would recurse.
        chain = N(7)
        for _ in range(100_000):
            chain = C(0, chain)
        spine = N(0)
        for i in range(1, 100_001):
            spine = M(spine, N(i))
        assert freenonces(chain) == frozenset({7})
        assert freenonces(spine) == frozenset(range(100_001))

    @given(term_strategy())
    def test_free_functions_invariant_under_normalize(self, t):
        nf = normalize(t)
        assert freenonces(t) == freenonces(nf)
        assert freediscrim(t) == freediscrim(nf)
        assert msg_eq(freeleft(t), freeleft(nf))
        assert msg_eq(freeright(t), freeright(nf))


class TestCongruence:
    @pytest.mark.parametrize(
        "rmap",
        [FREENONCES_MAP, FREELEFT_MAP, FREERIGHT_MAP, FREEDISCRIM_MAP],
        ids=lambda m: m.name,
    )
    def test_free_functions_certified(self, rmap):
        assert check_respects(rmap, 500).verdict is Verdict.CERTIFIED

    def test_truncated_discriminator_refuted(self):
        report = check_respects(FREEDISCRIM_TRUNCATED_MAP, 500)
        assert report.verdict is Verdict.REFUTED
        u, v = report.counterexample
        assert (u, v) == (C(0, D(0, N(0))), N(0))
        assert msg_eq(u, v)
        assert freediscrim_truncated(u) != freediscrim_truncated(v)
        assert revalidate_counterexample(report)

    def test_constructor_bodies_certified(self):
        assert check_respects(MPAIR_MAP, 400).verdict is Verdict.CERTIFIED
        for k in (0, 1):
            assert check_respects(crypt_map(k), 300).verdict is Verdict.CERTIFIED
            assert check_respects(decrypt_map(k), 300).verdict is Verdict.CERTIFIED

    def test_related_pairs_contract(self):
        for u, v in msgrel.related_pairs(300):
            assert msg_eq(u, v)

    def test_related_pair_order_is_pinned(self):
        # The checker's `checked` counts and counterexamples, and so the
        # goldens, depend on this exact order of the whole default pair list.
        pairs = msgrel.related_pairs(10**9)
        text = "\n".join(f"{print_term(u)} {print_term(v)}" for u, v in pairs)
        assert len(pairs) == 6958
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1ea471a52c85fd362f89bd1b42c17308d2b8785d81ebfa4edd63eccba0379a45"
        )


def fresh_stream(bound, keys=(0, 1), nonces=(0, 1)):
    """A new stream over the universe with nothing kept: a copy of its
    relation's, whatever that relation has generated already."""
    return copy.copy(msg_relation(bound, keys, nonces).related_pairs)


class TestPairStream:
    @pytest.mark.parametrize("keys, nonces", [((0, 1), (0, 1)), ((0,), (0, 1, 2))],
                             ids=["default-domains", "one-key-three-nonces"])
    @pytest.mark.parametrize("bound", range(1, 7))
    def test_stream_matches_eager_sort(self, bound, keys, nonces):
        naive = sorted_pairs_naive(bound, keys, nonces)
        totals = [size(u) + size(v) for u, v in naive]
        # A layer's first pair, at index i; the budget i ends on the last
        # pair of the layer before it.
        firsts = [i for i in range(1, len(naive)) if totals[i] != totals[i - 1]]
        budgets = sorted({1, *firsts, *(i + 1 for i in firsts), len(naive), len(naive) + 7})
        stream = fresh_stream(bound, keys, nonces)  # extended layer by layer
        for budget in budgets:
            assert stream(budget) == naive[:budget]

    def test_stream_builds_only_the_terms_it_reaches(self, monkeypatch):
        # The terms built are exactly the sides of the kept pairs and their
        # subterms, each built once: a later request returns the same term
        # objects (in new pair tuples).
        calls = []  # the terms list and the indices of each build
        build = messages._build
        monkeypatch.setattr(messages, "_build", lambda shapes, terms, indices: (
            calls.append((terms, list(indices))) or build(shapes, terms, indices)))
        stream = fresh_stream(7)

        def built():
            terms = calls[0][0]
            indices = [i for _, batch in calls for i in batch]
            assert all(t is terms for t, _ in calls) and len(indices) == len(set(indices))
            assert {i for i, t in enumerate(terms) if t is not None} == set(indices)
            return {id(terms[i]) for i in indices}

        def reached():
            found, stack = {}, stream._lefts + stream._rights
            while stack:
                t = stack.pop()
                if id(t) not in found:
                    found[id(t)] = t
                    stack += (t.left, t.right) if type(t) is M else () if type(t) is N else (t.body,)
            return found.keys()

        first = stream(200)  # layers up to total size 6
        before = list(calls[0][0])
        assert built() == reached() and len(built()) == 158
        second = stream(2000)  # layers up to total size 8
        assert built() == reached() and len(built()) == 1494
        assert all(t is None or t is u for t, u in zip(before, calls[0][0]))
        assert all(p[0] is q[0] and p[1] is q[1] for p, q in zip(first, second[:200], strict=True))

    def test_stream_closes_only_the_sizes_it_reaches(self, monkeypatch):
        # Layers up to total size 8 pair terms of size at most 7, so a
        # bound-8 stream asked for 2000 pairs closes no size-8 shape; a
        # `_closure` call's last argument is the end of the size it closes.
        stops = []
        closure = messages._closure
        monkeypatch.setattr(messages, "_closure", lambda *args: stops.append(args[-1]) or closure(*args))
        pairs = fresh_stream(8)(2000)
        assert len(pairs) == 2000 and max(size(u) + size(v) for u, v in pairs) == 8
        assert stops == list(messages._running_sizes(7, (0, 1), (0, 1)))
        assert stops[-1] == universe_size(7) < universe_size(8)

    def test_evicted_universe_is_freed_at_once(self):
        # No reference cycle holds a universe the cache has let go.
        messages._msg_relation.cache_clear()
        msg_relation(6).related_pairs(2000)
        gc.disable()
        try:
            layers = weakref.ref(msg_relation(6).related_pairs._tiers)
            messages._msg_relation.cache_clear()
            assert layers() is None
        finally:
            gc.enable()

    def test_concurrent_requests_share_one_stream(self):
        # Requests from many threads grow one fresh stream's term and pair
        # lists; each must still get the exact prefix of the eager sort.
        naive = sorted_pairs_naive(5)
        budgets = [1, 10, 100, 1000, 4000, len(naive)] * 2
        stream = fresh_stream(5)
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
        assert results == [naive[:budget] for budget in budgets]

    def test_repeated_check_asks_the_carrier_once_per_element(self, monkeypatch):
        # The relation is one per universe and keeps its sample: a second
        # check of the same relation asks the carrier nothing.
        calls = []
        carrier = messages.well_formed
        monkeypatch.setattr(messages, "well_formed", lambda t: calls.append(t) or carrier(t))
        messages._msg_relation.cache_clear()
        try:
            for expected in (822, 0):
                calls.clear()
                assert check_equivalence(msg_relation(6), 2000).verdict is Verdict.CERTIFIED
                assert len(calls) == len({id(t) for t in calls}) == expected
        finally:
            messages._msg_relation.cache_clear()

    def test_shapes_are_listed_as_the_closure_reaches_them(self, monkeypatch):
        # Making the relation lists nothing.  2000 pairs of the bound-8
        # universe reach layer 8, which pairs terms of size at most 7: sizes
        # 1 to 7 are listed, each once, and no size-8 shape, however often
        # the budget is asked again.
        calls = []  # the shapes list and the size listed, per call
        enumerate_ = messages._enumerate
        monkeypatch.setattr(messages, "_enumerate", lambda shapes, starts, *domains: (
            calls.append((shapes, len(starts))) or enumerate_(shapes, starts, *domains)))
        messages._msg_relation.cache_clear()
        rel = msg_relation(8)
        assert calls == []
        rel.related_pairs(2000)
        assert [s for _, s in calls] == list(range(1, 8))
        shapes = calls[0][0]
        assert all(listed is shapes for listed, _ in calls) and len(shapes) == universe_size(7)
        rel.related_pairs(2000)
        rel.related_pairs(10)
        assert len(calls) == 7 and len(shapes) == universe_size(7)

    def test_bad_universes_raise_when_made(self):
        # Every time, since nothing is cached for them.
        for _ in range(2):
            with pytest.raises(UniverseTooLargeError):
                msg_relation(13)
            with pytest.raises(ValueError, match="bound must be >= 1"):
                msg_relation(0)

    def test_one_relation_per_universe(self):
        assert msg_relation(6, (1, 0), (0, 1, 1)) is msg_relation(6)
        assert msg_relation(6, [1, 0, 1]) is msg_relation(6) is not msg_relation(6, (0,))
        assert msg_relation() is msg_relation(5, (0, 1), (0, 1))

    def test_default_universe_is_always_msgrel(self):
        # Also once the cache has let every universe go.
        messages._msg_relation.cache_clear()
        assert msg_relation() is msg_relation(5, [1, 0, 1], (1, 0)) is msgrel
        for k in range(9):
            msg_relation(3, (k,))  # evicts every cached universe
        assert msg_relation() is msgrel

    def test_closure_runs_once_per_universe(self, monkeypatch):
        # One pass per size of the universe, each once across both rounds;
        # a call's last argument is the end of the size it closes.
        calls = []
        closure = messages._closure
        monkeypatch.setattr(messages, "_closure", lambda *args: calls.append(args[-1]) or closure(*args))
        messages._msg_relation.cache_clear()
        for _ in range(2):
            rel = msg_relation(4)
            for rmap in free_maps(rel).values():
                check_respects(rmap, 2000)
            check_respects(RespectMap(M, (rel, rel), msg_eq), 2000)
            check_equivalence(rel, 2000)
        assert calls == list(messages._running_sizes(4, (0, 1), (0, 1)))


class TestQuotientLayer:
    def test_crypt_decrypt_cancel(self):
        assert crypt(1, decrypt(1, nonce(5))) == nonce(5)

    def test_decrypt_crypt_cancel(self):
        for x in (nonce(0), mpair(nonce(1), nonce(2)), crypt(0, nonce(1))):
            assert decrypt(1, crypt(1, x)) == x

    def test_mpair_representative(self):
        assert mpair(nonce(1), nonce(2)).rep == M(N(1), N(2))

    def test_msg_stored_normalized(self):
        value = msg(C(0, D(0, M(N(1), C(2, D(2, N(3)))))))
        assert value.rep == M(N(1), N(3))
        assert is_normal(value.rep)

    def test_lifted_functions(self):
        assert nonces(decrypt(2, nonce(4))) == {4}
        x, y = nonce(1), mpair(nonce(2), nonce(3))
        assert left(mpair(x, y)) == x
        assert right(mpair(x, y)) == y
        assert discrim(crypt(0, mpair(nonce(1), nonce(2)))) == 3

    def test_discrim_matches_free_function_on_representative(self):
        value = crypt(0, mpair(nonce(1), nonce(2)))
        assert discrim(value) == freediscrim(value.rep)

    @given(term_strategy(), term_strategy())
    def test_recursion_equations(self, u, v):
        x, y = msg(u), msg(v)
        assert nonces(mpair(x, y)) == nonces(x) | nonces(y)
        assert left(mpair(x, y)) == x
        assert right(mpair(x, y)) == y
        assert discrim(mpair(x, y)) == 1
        for k in (0, 1):
            assert nonces(crypt(k, x)) == nonces(x)
            assert nonces(decrypt(k, x)) == nonces(x)
            assert left(crypt(k, x)) == left(x)
            assert right(decrypt(k, x)) == right(x)
            assert discrim(crypt(k, x)) == discrim(x) + 2
            assert discrim(decrypt(k, x)) == discrim(x) - 2

    def test_nonce_equations(self):
        for n in range(4):
            assert nonces(nonce(n)) == {n}
            assert left(nonce(n)) == nonce(n)
            assert right(nonce(n)) == nonce(n)
            assert discrim(nonce(n)) == 0

    def test_injectivity_small(self):
        reps = [msg(t) for t in enumerate_terms(3)]
        seen = {}
        for x in reps:
            for y in reps:
                key = mpair(x, y).rep
                prior = seen.setdefault(key, (x, y))
                assert prior == (x, y)
        for k in (0, 1):
            seen = {}
            for x in reps:
                key = crypt(k, x).rep
                assert seen.setdefault(key, x) == x
            seen = {}
            for x in reps:
                key = decrypt(k, x).rep
                assert seen.setdefault(key, x) == x
        assert len({nonce(n).rep for n in range(20)}) == 20

    def test_not_injective_in_key(self):
        for x in (nonce(0), mpair(nonce(1), nonce(2))):
            assert crypt(0, decrypt(0, x)) == x
            assert crypt(1, decrypt(1, x)) == x
            assert crypt(0, decrypt(0, x)) == crypt(1, decrypt(1, x))

    def test_discrimination(self):
        for n in range(3):
            for u in (nonce(0), crypt(1, nonce(1))):
                for v in (nonce(1), decrypt(0, nonce(2))):
                    assert nonce(n) != mpair(u, v)
        for k in (0, 1):
            for m_ in range(3):
                for n_ in range(3):
                    assert crypt(k, nonce(m_)) != nonce(n_)

    @given(term_strategy())
    @settings(max_examples=50)
    def test_msg_equality_is_class_equality(self, t):
        wrapped = C(1, D(1, t))
        assert msg(wrapped) == msg(t)
        assert hash(msg(wrapped)) == hash(msg(t))

    def test_repr_mentions_normal_form(self):
        assert "Nonce" in repr(nonce(3))
        assert isinstance(nonce(3), Msg)

    def test_carrier_rejects_malformed_terms(self):
        from quotients.errors import DomainError
        with pytest.raises(DomainError):
            nonce(-1)
        with pytest.raises(DomainError):
            crypt(-2, nonce(0))
        with pytest.raises(DomainError):
            msg("not a term")

    def test_carrier_rejects_bools(self):
        # A bool nonce or key would print as (nonce True), which no term parses as.
        from quotients.errors import DomainError
        for t in (Nonce(True), Crypt(False, Nonce(0)), Decrypt(True, Nonce(0)),
                  MPair(Nonce(0), Nonce(False))):
            assert not messages.well_formed(t)
        with pytest.raises(DomainError):
            msg(Nonce(True))
        with pytest.raises(DomainError):
            msg(Crypt(False, Nonce(0)))

    def test_key_cache_tells_bools_and_floats_from_ints(self):
        # 1, True and 1.0 are one key to an untyped cache, so whichever came
        # first would decide whether the others are keys.
        from quotients.errors import DomainError
        x = nonce(0)
        for op, node in ((crypt, Crypt), (decrypt, Decrypt)):
            messages._keyed_op.cache_clear()
            with pytest.raises(DomainError):
                op(True, x)
            assert op(1, x).rep == node(1, Nonce(0))
            messages._keyed_op.cache_clear()
            assert op(1, x).rep == node(1, Nonce(0))
            for bad in (True, 1.0):
                with pytest.raises(DomainError):
                    op(bad, x)

    def test_carrier_walks_deep_terms(self):
        # A 100,000-deep crypt chain and left-nested pair spine are in the
        # carrier; a bad nonce, key or non-term at the bottom still is not.
        depth = 100_000

        def chain(bottom):
            for _ in range(depth):
                bottom = Crypt(1, bottom)
            return bottom

        def spine(bottom):
            for i in range(depth):
                bottom = MPair(bottom, Nonce(i))
            return bottom

        for wrap in (chain, spine):
            assert messages.well_formed(wrap(Nonce(7)))
            for bottom in (Nonce(-1), Decrypt(True, Nonce(0)), "not a term"):
                assert not messages.well_formed(wrap(bottom))

    @given(st.recursive(
        st.one_of(_LOOSE_VALUES.map(N), st.sampled_from([None, "x", 3, (1, 2)])),
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: M(*p)),
            st.tuples(_LOOSE_VALUES, sub).map(lambda p: C(*p)),
            st.tuples(_LOOSE_VALUES, sub).map(lambda p: D(*p)),
        ),
        max_leaves=12,
    ))
    def test_carrier_matches_recursive_reference(self, t):
        assert messages.well_formed(t) is well_formed_recursive(t)
