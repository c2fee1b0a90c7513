"""Reference s-expression reader the reader tests compare against.

A character-by-character lexer and a recursive descent, building the same
`SAtom`/`SList` nodes as `quotients.sexpr.parse_sexpr`.  Its depth is bounded
by Python's recursion limit, so it serves only inputs of modest nesting.
"""

from __future__ import annotations

from quotients.errors import ParseError
from quotients.sexpr import SAtom, SList, SNode

_DELIMS = "()"


def _tokenize(text: str):
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DELIMS:
            yield c, i
            i += 1
            continue
        start = i
        while i < n and not text[i].isspace() and text[i] not in _DELIMS:
            i += 1
        yield text[start:i], start


def _atom(token: str, offset: int) -> SAtom:
    try:
        return SAtom(int(token), offset)
    except ValueError:
        return SAtom(token, offset)


def parse_sexpr(text: str) -> SNode:
    """Parse exactly one s-expression; anything trailing is an error."""
    tokens = list(_tokenize(text))
    pos = 0

    def parse_one() -> SNode:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of input", len(text))
        token, offset = tokens[pos]
        pos += 1
        if token == "(":
            items = []
            while True:
                if pos >= len(tokens):
                    raise ParseError("missing closing parenthesis", len(text))
                if tokens[pos][0] == ")":
                    close = tokens[pos][1]
                    pos += 1
                    return SList(tuple(items), offset, close)
                items.append(parse_one())
        if token == ")":
            raise ParseError("unexpected closing parenthesis", offset)
        return _atom(token, offset)

    node = parse_one()
    if pos < len(tokens):
        raise ParseError("trailing input after expression", tokens[pos][1])
    return node
