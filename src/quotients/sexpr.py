"""S-expression reading and printing for terms and prefix expressions.

`parse_sexpr` reads a parenthesis or a run of characters that are neither
as a token and builds a generic `SAtom`/`SList` tree with source offsets.
`parse_term` first tries `_lexeme_term`, a loop that reads a term's nodes
as whole lexemes, `(nonce D)`, `(mpair` and `(crypt D` or `(decrypt D`
where D is a run of decimal digits, and builds each node as its `)` is
read.  On any other text it gives up, and `_term_of(parse_sexpr(text))`
reads the text again: it gives the term, or words the first error, a
syntax error anywhere, else the first shape error in pre-order.
Both loops keep open lists on an explicit stack, so depth is not bounded
by recursion.

Offsets are 0-based character offsets into the input (for the ASCII
grammar these coincide with byte offsets).

Only term reading and printing need the message constructors; they are
bound on the first call of `parse_term` or `print_term`, so reading a
prefix expression never imports `messages`.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .equiv import Record
from .errors import ParseError

if TYPE_CHECKING:
    from .messages import FreeMsg


_set = object.__setattr__  # how a Record's __init__ sets its fields


class SAtom(Record):
    __slots__ = ("value", "offset")

    def __init__(self, value: int | str, offset: int) -> None:
        _set(self, "value", value)
        _set(self, "offset", offset)


class SList(Record):
    __slots__ = ("items", "open_offset", "close_offset")

    def __init__(self, items: tuple, open_offset: int, close_offset: int) -> None:
        _set(self, "items", items)
        _set(self, "open_offset", open_offset)
        _set(self, "close_offset", close_offset)


SNode = SAtom | SList

# A token is a parenthesis or a run of characters that are neither
# parentheses nor whitespace; regex \s is exactly str.isspace().
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _value(token: str) -> int | str:
    # Only a token that starts, after its signs, with a decimal digit can be
    # an int; a numeral past the int-to-text digit limit stays a name.
    if token.lstrip("+-")[:1].isdecimal():
        try:
            return int(token)
        except ValueError:
            pass
    return token


def parse_sexpr(text: str) -> SNode:
    """Parse exactly one s-expression; anything trailing is an error."""
    # Per open list, innermost last: its open offset and the items of the
    # list around it.  `items` are the innermost open list's; `top` holds
    # the result.
    stack = []
    items = top = []
    for match in _TOKEN.finditer(text):
        token = match[0]
        if token == ")":
            if not stack:
                raise ParseError("trailing input after expression" if top
                                 else "unexpected closing parenthesis", match.start())
            open_offset, outer = stack.pop()
            outer.append(SList(tuple(items), open_offset, match.start()))
            items = outer
        elif items is top and top:
            raise ParseError("trailing input after expression", match.start())
        elif token == "(":
            stack.append((match.start(), items))
            items = []
        else:
            items.append(SAtom(_value(token), match.start()))
    if stack:
        raise ParseError("missing closing parenthesis", len(text))
    if not top:
        raise ParseError("unexpected end of input", len(text))
    return top[0]


# ---------------------------------------------------------------------------
# Message terms.

_TERM_ARITY = {"nonce": 1, "mpair": 2, "crypt": 2, "decrypt": 2}

# The message constructors, None until `_bind_terms` imports them.
Nonce = MPair = Crypt = Decrypt = None


def _bind_terms() -> None:
    global Nonce, MPair, Crypt, Decrypt
    from .messages import Crypt, Decrypt, MPair, Nonce


def _nat(node: SNode, what: str) -> int:
    """The natural number `node` holds in a key or nonce position."""
    if type(node) is SList:
        raise ParseError(f"{what} must be a natural number", node.open_offset)
    value = node.value
    if type(value) is not int:
        raise ParseError(f"{what} must be a natural number", node.offset)
    if value < 0:
        raise ParseError(f"{what} must be a natural number, got {value}", node.offset)
    return value


def _term_of(node: SNode) -> FreeMsg:
    """The term a generic tree spells, or its first error: each node's own
    head, constructor, arity and key or value, then its children left to
    right.  Nodes are checked in pre-order from an explicit stack and built
    in reverse pre-order, so depth is not bounded by recursion."""
    order, stack = [], [node]
    while stack:
        node = stack.pop()
        if type(node) is SAtom:
            raise ParseError(f"expected a term, got atom {node.value!r}", node.offset)
        items = node.items
        head = items[0] if items else None
        if type(head) is not SAtom or type(head.value) is not str:
            raise ParseError("expected a constructor name after '('", node.open_offset)
        name = head.value
        arity = _TERM_ARITY.get(name)
        if arity is None:
            raise ParseError(f"unknown constructor {name!r}", head.offset)
        if len(items) != arity + 1:
            raise ParseError(
                f"{name} takes {arity} argument{'s' if arity != 1 else ''}, got {len(items) - 1}",
                node.close_offset,
            )
        if name == "mpair":
            order.append((name, None))
            stack += (items[2], items[1])
        else:
            order.append((name, _nat(items[1], "nonce" if name == "nonce" else "key")))
            stack += items[2:]
    # A node's children are the terms built last, its left child on top.
    terms = []
    for name, key in reversed(order):
        if name == "nonce":
            terms.append(Nonce(key))
        elif name == "mpair":
            terms.append(MPair(terms.pop(), terms.pop()))
        else:
            terms.append((Crypt if name == "crypt" else Decrypt)(key, terms.pop()))
    return terms[0]


# Whole term nodes as single lexemes, tried before the generic tokens: a
# nonce leaf, a pair head, and a wrapper head with its key.  A digit run
# (regex \d is exactly str.isdecimal()) must end where a generic token
# ends: at whitespace or a parenthesis.  The generic tokens come last, so a
# stray character is a token and not skipped.
_TERM_TOKEN = re.compile(r"\((nonce)\s+(\d+)\s*\)|\((mpair)(?=[\s()])"
                         r"|\((crypt|decrypt)\s+(\d+)(?=[\s()])|" + _TOKEN.pattern)


def _lexeme_term(text: str) -> FreeMsg | None:
    """The term `text` spells if it is read by lexemes and `)` alone, each
    node built as its `)` is read; else None.  It never words an error."""
    # Per open list, innermost last: the match of its head and the items of
    # the list around it.  Items are always terms.
    stack = []
    items = top = []
    try:
        for match in _TERM_TOKEN.finditer(text):
            kind = match.lastindex  # 2: a nonce leaf, 3: a pair head, 5: a wrapper head
            if kind is None:
                if match[0] != ")" or not stack:
                    return None
                head, outer = stack.pop()
                if head.lastindex == 3:
                    if len(items) != 2:
                        return None
                    outer.append(MPair(items[0], items[1]))
                else:
                    if len(items) != 1:
                        return None
                    outer.append((Crypt if head[4] == "crypt" else Decrypt)(int(head[5]), items[0]))
                items = outer
            elif kind == 2:
                items.append(Nonce(int(match[2])))
            else:
                stack.append((match, items))
                items = []
    except ValueError:  # a numeral past the int-to-text digit limit
        return None
    return top[0] if not stack and len(top) == 1 else None


def parse_term(text: str) -> FreeMsg:
    """Parse a message term: (nonce N) | (mpair T T) | (crypt K T) |
    (decrypt K T), whitespace-insensitive."""
    if Nonce is None:
        _bind_terms()
    term = _lexeme_term(text)
    return term if term is not None else _term_of(parse_sexpr(text))


def print_term(t: FreeMsg) -> str:
    """A term as text that `parse_term` reads back.  Each node's opening
    text is emitted in pre-order from an explicit stack, which also holds
    the separators and closing parentheses still to come, so term depth is
    not bounded by recursion; the pieces are joined once."""
    if Nonce is None:
        _bind_terms()
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is str:
            out.append(t)
        elif cls is Nonce:
            out.append(f"(nonce {t.value})")
        elif cls is MPair:
            out.append("(mpair ")
            stack += (")", t.right, " ", t.left)
        else:
            out.append(f"(crypt {t.key} " if cls is Crypt else f"(decrypt {t.key} ")
            stack += (")", t.body)
    return "".join(out)
