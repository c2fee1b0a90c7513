"""Term syntax: parsing, printing, and error offsets."""

import re

import pytest
from hypothesis import given, settings, strategies as st

import sexpr_oracle
from conftest import term_strategy
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


def test_deep_malformed_input_is_a_parse_error():
    text = "(" * 5000
    with pytest.raises(ParseError) as exc:
        parse_sexpr(text)
    assert str(exc.value) == f"missing closing parenthesis (at offset {len(text)})"
    assert exc.value.offset == len(text)
