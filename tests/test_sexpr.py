"""Term syntax: parsing, printing, and error offsets."""

import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import sexpr_oracle
from conftest import term_strategy
from quotients import sexpr
from quotients.errors import ParseError
from quotients.messages import Crypt, Decrypt, MPair, Nonce
from quotients.sexpr import SAtom, SList, parse_sexpr, parse_term, print_term


def test_parse_example():
    assert parse_term("(crypt 1 (decrypt 1 (nonce 5)))") == Crypt(1, Decrypt(1, Nonce(5)))


def test_whitespace_insensitive():
    assert parse_term(" ( mpair\n(nonce 1)\t(nonce 2) ) ") == MPair(Nonce(1), Nonce(2))


def test_arity_error_at_closing_paren():
    text = "(mpair (nonce 1))"
    with pytest.raises(ParseError) as exc:
        parse_term(text)
    assert exc.value.offset == len(text) - 1  # the outer ')'
    assert "mpair takes 2 arguments" in str(exc.value)


def test_unknown_constructor_named():
    with pytest.raises(ParseError) as exc:
        parse_term("(seal 1 (nonce 2))")
    assert "'seal'" in str(exc.value)
    assert exc.value.offset == 1


def test_negative_nonce_rejected():
    with pytest.raises(ParseError) as exc:
        parse_term("(nonce -3)")
    assert "natural" in str(exc.value)


def test_unbalanced_input():
    with pytest.raises(ParseError):
        parse_term("(mpair (nonce 1) (nonce 2)")
    with pytest.raises(ParseError) as exc:
        parse_term("(nonce 1))")
    assert exc.value.offset == len("(nonce 1)")


def test_trailing_form_rejected():
    with pytest.raises(ParseError):
        parse_term("(nonce 1) (nonce 2)")


def test_atom_is_not_a_term():
    with pytest.raises(ParseError):
        parse_term("nonce")
    with pytest.raises(ParseError):
        parse_term("()")


@given(term_strategy())
def test_round_trip(t):
    assert parse_term(print_term(t)) == t
    assert sexpr._lexeme_term(print_term(t)) == t  # printed text never needs the general reader


def test_generic_sexpr_nodes():
    node = parse_sexpr("(+ 1 (neg -2))")
    assert isinstance(node, SList)
    head = node.items[0]
    assert isinstance(head, SAtom) and head.value == "+"
    assert node.items[1].value == 1
    inner = node.items[2]
    assert inner.items[0].value == "neg" and inner.items[1].value == -2


# Reader texts are pieces joined with no forced separator, so a name runs
# into a parenthesis ("a(b") and signs, digits and "_" run into numerals.
# The digits include a non-ASCII decimal digit (int() reads it) and a
# superscript (a digit that int() rejects); the long numeral is past the
# int-to-text digit limit, so it stays a name.
_PIECES = ["(", ")", " ", "\t", "\n", "\x1c", "\x85", "\u3000", "nonce", "crypt", "+",
           "neg", "x", "-", "_", "0", "1", "\u0663", "\u00b2", "7" * 4301]


def _read(reader, text):
    try:
        return reader(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.offset)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
def test_reader_matches_oracle(text):
    assert _read(parse_sexpr, text) == _read(sexpr_oracle.parse_sexpr, text)


def _flat(t):
    """A term as its preorder list of (class, key or value), built without
    recursion, so comparing two of them never recurses."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if type(t) is Nonce:
            out.append((Nonce, t.value))
        elif type(t) is MPair:
            out.append((MPair, None))
            stack += (t.right, t.left)
        else:
            out.append((type(t), t.key))
            stack.append(t.body)
    return out


def _read_term(reader, text):
    try:
        return _flat(reader(text))
    except ParseError as exc:
        return ("ParseError", str(exc), exc.offset)


# Term-grammar texts: near-terms whose keys and nonces are numerals of any
# kind, names or lists, and whose lists may have any head (unknown names,
# numerals, lists) and any argument count; any whitespace separates.  Edits
# add or drop a parenthesis or a second form, so shape errors come before,
# after or without a syntax error.
_NUMERALS = ["0", "1", "+3", "-0", "\u0663", "1_0", "-1", "\u00b2", "7" * 4301, "x", "()"]
_TERM_HEADS = ["nonce", "mpair", "crypt", "decrypt", "seal", "Nonce", "1", "+3", "()", ""]
_WHITESPACE = [" ", "\t", "\n", "\x1c", "\x85", "\u3000"]
_NUMERAL = st.sampled_from(_NUMERALS)
_NEAR_TERM = st.recursive(
    st.one_of(_NUMERAL.map("(nonce {})".format), _NUMERAL),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda p: f"(mpair {p[0]} {p[1]})"),
        st.tuples(st.sampled_from(["crypt", "decrypt"]), _NUMERAL, sub).map(
            lambda p: f"({p[0]} {p[1]} {p[2]})"),
        st.tuples(st.sampled_from(_TERM_HEADS), st.lists(sub, max_size=3)).map(
            lambda p: "(" + " ".join((p[0], *p[1])) + ")"),
    ),
    max_leaves=10,
)


@st.composite
def _term_texts(draw):
    text = draw(st.one_of(_NEAR_TERM, term_strategy().map(print_term)))
    edit = draw(st.sampled_from(
        ["none", "none", "none", "close", "open", "drop", "second", "insert"]))
    if edit == "close":
        text += ")"
    elif edit == "open":
        text = "(" + text
    elif edit == "drop":
        text = text[:-1]
    elif edit == "second":
        text += " " + draw(_NEAR_TERM)
    elif edit == "insert":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["(", ")", " x "])) + text[at:]
    return text.replace(" ", draw(st.sampled_from(_WHITESPACE)))


_TERM_PIECES = ["(", ")", " ", "\u3000", "nonce", "mpair", "crypt", "decrypt", "seal", "()",
                "+3", "-1", "\u0663", "1_0", "7" * 4301, "0", "1"]


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_term_texts(), st.lists(st.sampled_from(_TERM_PIECES), max_size=30).map("".join)))
@example("(seal 1))")  # a shape error, then a syntax error: the syntax error wins
@example("(mpair (nonce -1) (seal)) (")
@example("(crypt (nonce 1) (seal 2))")  # a list as key: the error is at its '('
@example("(nonce\u3000 (mpair))")
@example("(decrypt 1 nonce)")
@example("(mpair (nonce 1) (crypt -2 (seal)))")
@example("(crypt 1_0 (nonce +3))")
@example("(nonce \u0663)")
@example(f"(nonce {'7' * 4301})")
@example("()")
@example("(1 (nonce 0))")
# Each place the lexeme loop gives up: a numeral or a name that runs on,
# whitespace after '(' or a digit that regex \d does not match, the wrong
# children, text or a stray token after a whole term, and a list that is no
# lexeme.
@example("(crypt 0x (nonce 1))")
@example("(mpairx (nonce 0) (nonce 1))")
@example("(nonce 5x)")
@example("(\u3000crypt\u30000 (nonce 1))")
@example("(nonce \u00b2)")
@example("(crypt 1 (nonce 1) (nonce 2))")
@example("(mpair (nonce 1))")
@example("(mpair (nonce 0) (nonce 1) (nonce 2))")
@example("(crypt 1 x)")
@example("(decrypt 0 (seal))")
@example("(nonce 1) (nonce 2)")
@example("(crypt 1 (nonce 1)))")
@example("(nonce 1) x")
@example("((nonce 1))")
@example("(mpair)")
@example("(mpair (nonce 0) ( nonce 1))")  # a valid term with one list that is no lexeme
def test_parse_term_matches_oracle(text):
    assert _read_term(parse_term, text) == _read_term(sexpr_oracle.parse_term, text)


def test_parse_term_matches_oracle_under_a_lower_digit_limit():
    # A numeral within the default int-to-text digit limit but past the one
    # in force is not a number, whether it is a nonce or a key.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for text in (f"(nonce {'7' * 700})", f"(crypt {'7' * 700} (nonce 1))"):
            got = _read_term(parse_term, text)
            assert got == _read_term(sexpr_oracle.parse_term, text)
            assert got[0] == "ParseError" and got[1].endswith("must be a natural number (at offset 7)")
    finally:
        sys.set_int_max_str_digits(limit)


def test_regex_whitespace_is_isspace():
    # The lexer splits on regex \s; the grammar's whitespace is str.isspace().
    chars = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]


def test_deep_nesting_is_read():
    depth = 100_000
    text = "(" * depth + "x" + ")" * depth
    node = parse_sexpr(text)
    # Walk the tree by hand: ==, hash and repr recurse over it.
    for level in range(depth):
        assert type(node) is SList
        assert (len(node.items), node.open_offset, node.close_offset) == (
            1, level, len(text) - 1 - level)
        node = node.items[0]
    assert type(node) is SAtom
    assert (node.value, node.offset) == ("x", depth)


def test_deep_terms_are_read():
    # A 100,000-deep crypt chain and a 100,000-deep left-nested pair spine;
    # the results are walked by hand, since hash and repr recurse.
    depth = 100_000
    chain = parse_term("(crypt 1 " * depth + "(nonce 7)" + ")" * depth)
    for _ in range(depth):
        assert type(chain) is Crypt and chain.key == 1
        chain = chain.body
    assert type(chain) is Nonce and chain.value == 7
    spine = parse_term("(mpair " * depth + "(nonce 0)"
                       + "".join(f" (nonce {i}))" for i in range(1, depth + 1)))
    for i in range(depth, 0, -1):
        assert type(spine) is MPair and type(spine.right) is Nonce and spine.right.value == i
        spine = spine.left
    assert type(spine) is Nonce and spine.value == 0


# Keys and nonces of any size or sign, and bools, to pin the printed bytes
# of values that a well-formed term would not hold.
_ANY_VALUES = st.one_of(st.integers(), st.booleans())


@given(st.recursive(
    _ANY_VALUES.map(Nonce),
    lambda sub: st.one_of(
        st.builds(MPair, sub, sub),
        st.builds(Crypt, _ANY_VALUES, sub),
        st.builds(Decrypt, _ANY_VALUES, sub),
    ),
    max_leaves=20,
))
def test_print_term_matches_oracle(t):
    assert print_term(t) == sexpr_oracle.print_term(t)


def test_deep_terms_are_printed():
    # A 100,000-deep crypt chain and a 100,000-deep left-nested pair spine,
    # built without the reader.
    depth = 100_000
    chain = Nonce(7)
    for _ in range(depth):
        chain = Crypt(1, chain)
    assert print_term(chain) == "(crypt 1 " * depth + "(nonce 7)" + ")" * depth
    spine = Nonce(0)
    for i in range(1, depth + 1):
        spine = MPair(spine, Nonce(i))
    assert print_term(spine) == ("(mpair " * depth + "(nonce 0)"
                                 + "".join(f" (nonce {i}))" for i in range(1, depth + 1)))


def test_deep_malformed_input_is_a_parse_error():
    text = "(" * 5000
    with pytest.raises(ParseError) as exc:
        parse_sexpr(text)
    assert str(exc.value) == f"missing closing parenthesis (at offset {len(text)})"
    assert exc.value.offset == len(text)
    # A crypt chain over a nonce that is not a number, and a left-nested
    # pair spine whose innermost pair has one argument.  The lexeme loop
    # gives up at the error and the whole text is read again by
    # parse_sexpr and checked by _term_of, without recursion; the oracle
    # agrees when shallow.
    for depth in (30, 100_000):
        chain = "(crypt 1 " * depth + "(nonce x)" + ")" * depth
        spine = "(mpair " * depth + "(nonce 0))" + "".join(f" (nonce {i}))" for i in range(2, depth + 1))
        for text, message, offset in ((chain, "nonce must be a natural number", 9 * depth + 7),
                                      (spine, "mpair takes 2 arguments, got 1", 7 * depth + 9)):
            expected = ("ParseError", f"{message} (at offset {offset})", offset)
            assert _read_term(parse_term, text) == expected
            if depth < 1000:
                assert _read_term(sexpr_oracle.parse_term, text) == expected
