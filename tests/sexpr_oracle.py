"""Reference readers the reader tests compare against.

`parse_sexpr` is a character-by-character lexer and a recursive descent,
building the same `SAtom`/`SList` nodes as `quotients.sexpr.parse_sexpr`.
`parse_term` checks constructors and arities by a recursive walk over that
node tree, raising the first error it meets: the node's own head,
constructor, arity and key or value, then its children left to right.
`print_term` is the recursive printer, one f-string per node.  Their depth
is bounded by Python's recursion limit, so they serve only inputs of
modest nesting.
"""

from __future__ import annotations

from quotients.errors import ParseError
from quotients.messages import Crypt, Decrypt, FreeMsg, MPair, Nonce
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


_TERM_ARITY = {"nonce": 1, "mpair": 2, "crypt": 2, "decrypt": 2}


def _require_nat(node: SNode, what: str) -> int:
    if not isinstance(node, SAtom) or not isinstance(node.value, int):
        offset = node.offset if isinstance(node, SAtom) else node.open_offset
        raise ParseError(f"{what} must be a natural number", offset)
    if node.value < 0:
        raise ParseError(f"{what} must be a natural number, got {node.value}", node.offset)
    return node.value


def _term_of(node: SNode) -> FreeMsg:
    if isinstance(node, SAtom):
        raise ParseError(f"expected a term, got atom {node.value!r}", node.offset)
    if not node.items or not isinstance(node.items[0], SAtom) or not isinstance(node.items[0].value, str):
        raise ParseError("expected a constructor name after '('", node.open_offset)
    head = node.items[0]
    name = head.value
    arity = _TERM_ARITY.get(name)
    if arity is None:
        raise ParseError(f"unknown constructor {name!r}", head.offset)
    args = node.items[1:]
    if len(args) != arity:
        raise ParseError(
            f"{name} takes {arity} argument{'s' if arity != 1 else ''}, got {len(args)}",
            node.close_offset,
        )
    if name == "nonce":
        return Nonce(_require_nat(args[0], "nonce"))
    if name == "mpair":
        return MPair(_term_of(args[0]), _term_of(args[1]))
    if name == "crypt":
        return Crypt(_require_nat(args[0], "key"), _term_of(args[1]))
    return Decrypt(_require_nat(args[0], "key"), _term_of(args[1]))


def parse_term(text: str) -> FreeMsg:
    """Parse a message term: (nonce N) | (mpair T T) | (crypt K T) |
    (decrypt K T), whitespace-insensitive."""
    return _term_of(parse_sexpr(text))


def print_term(t: FreeMsg) -> str:
    if isinstance(t, Nonce):
        return f"(nonce {t.value})"
    if isinstance(t, MPair):
        return f"(mpair {print_term(t.left)} {print_term(t.right)})"
    if isinstance(t, Crypt):
        return f"(crypt {t.key} {print_term(t.body)})"
    return f"(decrypt {t.key} {print_term(t.body)})"
