"""The package's immutable records: repr, equality, hashing, immutability,
copy and pickle.  The expected reprs and hashes are those the classes had
as frozen dataclasses."""

import copy
import operator
import pickle

import pytest

from quotients.equiv import (
    CongruenceReport,
    EquivalenceReport,
    EquivClass,
    EquivRelation,
    RespectMap,
    Verdict,
)
from quotients.integers import NEG_MAP, IntPair, QInt, intrel, qint
from quotients.messages import (
    FREELEFT_MAP, Crypt, Decrypt, MPair, Msg, Nonce, msg, msgrel, normalize,
)
from quotients.rationals import QRat, qrat
from quotients.sexpr import SAtom, SList, parse_sexpr

CERTIFIED, REFUTED = Verdict.CERTIFIED, Verdict.REFUTED


def _records():
    """One value of each record type, with its fields by name, in order."""
    rel = EquivRelation("r", operator.eq, bool, list)
    rmap = RespectMap(len, (rel,), operator.eq, name="len")
    return [
        (Nonce(1), dict(value=1)),
        (MPair(Nonce(0), Nonce(1)), dict(left=Nonce(0), right=Nonce(1))),
        (Crypt(0, Nonce(1)), dict(key=0, body=Nonce(1))),
        (Decrypt(0, Nonce(1)), dict(key=0, body=Nonce(1))),
        (SAtom("x", 4), dict(value="x", offset=4)),
        (SList((SAtom(1, 1),), 0, 2), dict(items=(SAtom(1, 1),), open_offset=0, close_offset=2)),
        (rel, dict(name="r", decider=operator.eq, carrier=bool, related_pairs=list,
                   canonicalize=None)),
        (rmap, dict(function=len, sources=(rel,), target_eq=operator.eq, name="len")),
        (CongruenceReport(CERTIFIED, 3, map=rmap),
         dict(verdict=CERTIFIED, checked=3, counterexample=None, note=None, map=rmap)),
        (EquivalenceReport(REFUTED, 2, "symmetry", (1, 2)),
         dict(verdict=REFUTED, checked=2, law="symmetry", witness=(1, 2))),
        (EquivClass((1, 0), intrel), dict(representative=(1, 0), relation=intrel)),
        (qint(3, 1), dict(representative=IntPair(2, 0), relation=intrel)),
    ]


@pytest.mark.parametrize(
    "value, expected",
    [
        (Crypt(0, Nonce(1)), "Crypt(key=0, body=Nonce(value=1))"),
        (MPair(Decrypt(2, Nonce(0)), Nonce(3)),
         "MPair(left=Decrypt(key=2, body=Nonce(value=0)), right=Nonce(value=3))"),
        (SAtom(1, 0), "SAtom(value=1, offset=0)"),
        (SAtom("x", 4), "SAtom(value='x', offset=4)"),
        (parse_sexpr("(neg x)"),
         "SList(items=(SAtom(value='neg', offset=1), SAtom(value='x', offset=5)),"
         " open_offset=0, close_offset=6)"),
        (CongruenceReport(CERTIFIED, 3),
         "CongruenceReport(verdict=<Verdict.CERTIFIED: 'certified'>, checked=3,"
         " counterexample=None, note=None, map=None)"),
        (CongruenceReport(REFUTED, 5, ((1, 2),), "n"),
         "CongruenceReport(verdict=<Verdict.REFUTED: 'refuted'>, checked=5,"
         " counterexample=((1, 2),), note='n', map=None)"),
        (EquivalenceReport(REFUTED, 2, "symmetry", (1, 2)),
         "EquivalenceReport(verdict=<Verdict.REFUTED: 'refuted'>, checked=2,"
         " law='symmetry', witness=(1, 2))"),
        (RespectMap(len, (intrel,), operator.eq, name="len"),
         "RespectMap(function=<built-in function len>, sources=(EquivRelation('intrel'),),"
         " target_eq=<built-in function eq>, name='len')"),
        (CongruenceReport(CERTIFIED, 3, map=RespectMap(len, (intrel,), operator.eq)),
         "CongruenceReport(verdict=<Verdict.CERTIFIED: 'certified'>, checked=3,"
         " counterexample=None, note=None, map=RespectMap(function=<built-in function len>,"
         " sources=(EquivRelation('intrel'),), target_eq=<built-in function eq>, name=''))"),
        (intrel, "EquivRelation('intrel')"),
        (EquivClass((1, 0), intrel), "[(1, 0)]/intrel"),
        (qint(3, 1), "QInt(2, 0)"),
        (qrat(2, 4), "QRat(1/2)"),
        (msg(Crypt(0, Nonce(1))), "Msg(Crypt(key=0, body=Nonce(value=1)))"),
    ],
)
def test_repr(value, expected):
    assert repr(value) == expected


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda *f: EquivRelation(*f), ("r", operator.eq, bool, list, None)),
        (lambda *f: RespectMap(*f), (len, (intrel,), operator.eq, "len")),
        (lambda *f: CongruenceReport(*f),
         (REFUTED, 5, ((1, 2),), "n", RespectMap(len, (intrel,), operator.eq, "len"))),
        (lambda *f: EquivalenceReport(*f), (REFUTED, 2, "symmetry", (1, 2))),
        (lambda *f: SAtom(*f), ("x", 4)),
        (lambda *f: SList(*f), ((SAtom(1, 1),), 0, 2)),
    ],
)
def test_eq_and_hash_are_by_field_tuple(make, fields):
    a, b = make(*fields), make(*fields)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(fields)
    assert make(*fields[:-1], "other") != a
    assert a != fields and a != object()


def test_defaults_and_keywords():
    assert EquivRelation("r", operator.eq, bool, list).canonicalize is None
    assert RespectMap(len, (), operator.eq).name == ""
    assert CongruenceReport(CERTIFIED, 3) == CongruenceReport(
        verdict=CERTIFIED, checked=3, counterexample=None, note=None, map=None)
    assert EquivalenceReport(CERTIFIED, 1) == EquivalenceReport(CERTIFIED, 1, law=None, witness=None)


def test_equal_fields_of_another_type_are_unequal():
    assert CongruenceReport(CERTIFIED, 3) != EquivalenceReport(CERTIFIED, 3)
    assert Crypt(0, Nonce(1)) != Decrypt(0, Nonce(1))
    assert hash(Crypt(0, Nonce(1))) != hash(Decrypt(0, Nonce(1)))


@pytest.mark.parametrize("value, fields", _records(), ids=lambda v: type(v).__name__)
def test_fields_are_frozen(value, fields):
    assert type(value)(**fields) == value
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert {name: getattr(value, name) for name in fields} == fields


@pytest.mark.parametrize("value", [
    Nonce(1), MPair(Nonce(0), Crypt(1, Nonce(2))), Crypt(0, Nonce(1)), Decrypt(0, Nonce(1)),
    qint(3, 1), qrat(2, 4), msg(Crypt(0, Nonce(1))), SAtom(1, 0),
], ids=lambda v: type(v).__name__)
def test_no_instance_dict(value):
    assert not hasattr(value, "__dict__")


_ROUND_TRIPS = [
    MPair(Crypt(0, Nonce(1)), Decrypt(2, MPair(Nonce(3), Nonce(4)))),
    parse_sexpr("(add 1 (neg x))"),
    qint(3, 1),
    qrat(2, 4),
    CongruenceReport(REFUTED, 5, (IntPair(0, 1), IntPair(1, 2)), "n", NEG_MAP),
    EquivalenceReport(REFUTED, 2, "symmetry", (qint(1, 0), qint(0, 1))),
]


def _same(a, b):
    # Class values compare through their relation, which a round trip
    # rebuilds as an equal but distinct object; the repr pins the rest.
    return type(a) is type(b) and a == b and repr(a) == repr(b)


@pytest.mark.parametrize("value", _ROUND_TRIPS, ids=lambda v: type(v).__name__)
def test_copy_round_trips(value):
    for twin in (copy.copy(value), copy.deepcopy(value)):
        assert _same(twin, value)
    if isinstance(value, (QInt, QRat)):
        assert copy.deepcopy(value).relation.same_as(value.relation)


@pytest.mark.parametrize("value", _ROUND_TRIPS, ids=lambda v: type(v).__name__)
def test_pickle_round_trips(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twin = pickle.loads(pickle.dumps(value, protocol))
        assert twin is not value and _same(twin, value)
        assert hash(twin) == hash(value)


def test_msg_values_deep_copy():
    # msgrel's pairs come from its universe's stream, which copies and
    # pickles as the universe's bound and domains: a Msg, or a report that
    # holds a map over msgrel, round-trips to a relation with nothing kept,
    # and its pickle stays small however many pairs msgrel keeps.
    msgrel.related_pairs(2000)
    m = msg(Crypt(0, Nonce(1)))
    report = CongruenceReport(CERTIFIED, 3, map=FREELEFT_MAP)
    for value in (m, report):
        twins = [copy.deepcopy(value)]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(value, protocol)
            assert len(data) < 1024
            twins.append(pickle.loads(data))
        for twin in twins:
            assert repr(twin) == repr(value)
            rel = twin.relation if value is m else twin.map.sources[0]
            assert rel is not msgrel and rel.same_as(msgrel)
            assert rel.related_pairs._lefts == []
            assert rel.related_pairs(2000) == msgrel.related_pairs(2000)
            if value is m:
                assert twin == m
            else:
                assert twin.map.function is FREELEFT_MAP.function


# One term per class, built twice: compound terms that rewrite and one that
# is already normal, so the cache holds a normal form or the marker.
_CACHED_TERMS = [
    (lambda: Nonce(1), ("value",)),
    (lambda: MPair(Crypt(0, Decrypt(0, Nonce(1))), Nonce(2)), ("left", "right")),
    (lambda: Crypt(0, Decrypt(0, MPair(Nonce(1), Nonce(2)))), ("key", "body")),
    (lambda: Decrypt(1, MPair(Nonce(0), Crypt(2, Nonce(1)))), ("key", "body")),
]


@pytest.mark.parametrize("make, fields", _CACHED_TERMS, ids=["Nonce", "MPair", "Crypt", "Decrypt"])
def test_normal_form_cache_is_invisible(make, fields):
    value, fresh = make(), make()
    normalize(value)
    assert type(value)._fields == fields
    assert repr(value) == repr(fresh) and value == fresh and hash(value) == hash(fresh)
    twins = [copy.copy(value), copy.deepcopy(value)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.dumps(value, protocol) == pickle.dumps(fresh, protocol)
        twins.append(pickle.loads(pickle.dumps(value, protocol)))
    for twin in twins:
        assert type(twin) is type(value) and twin == fresh
        assert repr(twin) == repr(fresh) and hash(twin) == hash(fresh)
    cached = getattr(value, "_nf", None)
    with pytest.raises(AttributeError):
        setattr(value, "_nf", None)
    with pytest.raises(AttributeError):
        delattr(value, "_nf")
    assert getattr(value, "_nf", None) is cached
