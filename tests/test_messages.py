"""The message algebra: rewriting, the closure oracle, and the quotient."""

import hashlib

import pytest
from hypothesis import given, settings

from conftest import term_strategy
from msg_oracles import (
    MsgRule,
    closure_oracle,
    closure_oracle_naive,
    is_normal,
    normalize_outermost,
    rule_instances,
    size,
    sorted_pairs_naive,
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
    MPair,
    Msg,
    Nonce,
    closure_classes,
    crypt,
    crypt_map,
    decrypt,
    decrypt_map,
    discrim,
    enumerate_terms,
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
    universe_size,
)
from quotients.sexpr import parse_term, print_term

N, M, C, D = Nonce, MPair, Crypt, Decrypt


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

    @pytest.mark.parametrize("keys, nonces", [((0, 1), (0, 1)), ((0,), (0, 1, 2))],
                             ids=["default-domains", "one-key-three-nonces"])
    @pytest.mark.parametrize("bound", range(1, 7))
    def test_shapes_and_size_starts(self, bound, keys, nonces):
        terms, shapes, starts = messages._enumerate(bound, keys, nonces)
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
        assert revalidate_counterexample(FREEDISCRIM_TRUNCATED_MAP, report)

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
        messages._pair_layers.cache_clear()  # extend a fresh stream layer by layer
        rel = msg_relation(bound, keys, nonces)
        for budget in budgets:
            assert rel.related_pairs(budget) == naive[:budget]

    def test_closure_runs_once_per_universe(self, monkeypatch):
        calls = []
        closure = messages._closure
        monkeypatch.setattr(messages, "_closure", lambda *args: calls.append(args) or closure(*args))
        messages._pair_layers.cache_clear()
        for _ in range(2):
            rel = msg_relation(4)
            for rmap in free_maps(rel).values():
                check_respects(rmap, 2000)
            check_respects(RespectMap(M, (rel, rel), msg_eq), 2000)
            check_equivalence(rel, 2000)
        assert calls == [(4, (0, 1), (0, 1))]


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
