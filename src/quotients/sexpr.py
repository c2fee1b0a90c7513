"""S-expression reading and printing for terms and prefix expressions.

One reading loop, `_read`, serves both the message-term grammar and the
arithmetic expression grammars.  It is one regex and one loop over its
tokens with an explicit stack of open lists, so nesting depth is not
bounded by recursion; it raises the four syntax errors and hands each atom
and each closed list to a builder.  Two pairs of builders use it:

* `parse_sexpr` builds a generic `SAtom`/`SList` tree with source offsets,
  which the CLI's expression evaluator walks.
* `parse_term` builds message terms directly, each as its `)` is read.  A
  closed list becomes its term or the first `ParseError` of its subtree,
  carried as a value: first in the order of the node's own head,
  constructor, arity and key or value, then its children left to right.
  The error is raised only once the whole text is read, so a syntax error
  anywhere in the text wins over a shape error.

Offsets are 0-based character offsets into the input (for the ASCII
grammar these coincide with byte offsets).
"""

from __future__ import annotations

import re
from functools import partial

from .equiv import Record
from .errors import ParseError
from .messages import Crypt, Decrypt, FreeMsg, MPair, Nonce


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


def _read(text: str, atom, close):
    """Read exactly one s-expression; anything trailing is an error.  Each
    atom becomes `atom(token, offset)` and each list, as its `)` is read,
    `close(items, open_offset, close_offset)` of the values of its items."""
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
            outer.append(close(items, open_offset, match.start()))
            items = outer
            continue
        if items is top and top:
            raise ParseError("trailing input after expression", match.start())
        if token == "(":
            stack.append((match.start(), items))
            items = []
        else:
            items.append(atom(token, match.start()))
    if stack:
        raise ParseError("missing closing parenthesis", len(text))
    if not top:
        raise ParseError("unexpected end of input", len(text))
    return top[0]


def _sexpr_atom(token: str, offset: int) -> SAtom:
    return SAtom(_value(token), offset)


def _sexpr_list(items: list, open_offset: int, close_offset: int) -> SList:
    return SList(tuple(items), open_offset, close_offset)


def parse_sexpr(text: str) -> SNode:
    """Parse exactly one s-expression; anything trailing is an error."""
    return _read(text, _sexpr_atom, _sexpr_list)


# ---------------------------------------------------------------------------
# Message terms.  An atom is kept as its (token, offset) pair; its value is
# read only where the grammar asks for a number or an error names it.

_TERM_ARITY = {"nonce": 1, "mpair": 2, "crypt": 2, "decrypt": 2}


def _term_atom(token: str, offset: int) -> tuple[str, int]:
    return token, offset


def _subterm_error(item) -> ParseError | None:
    """None for a term in term position, else its error: the first error of
    a list, or an atom's."""
    if isinstance(item, FreeMsg):
        return None
    if type(item) is tuple:
        return ParseError(f"expected a term, got atom {_value(item[0])!r}", item[1])
    return item


def _nat(text: str, head: tuple[str, int], item, what: str) -> int | ParseError:
    """The natural number in the position after `head`, or its error."""
    if type(item) is not tuple:
        # A list: the error is at its '(', the first token after the head.
        name, offset = head
        offset = _TOKEN.search(text, offset + len(name)).start()
        return ParseError(f"{what} must be a natural number", offset)
    value = _value(item[0])
    if type(value) is not int:
        return ParseError(f"{what} must be a natural number", item[1])
    if value < 0:
        return ParseError(f"{what} must be a natural number, got {value}", item[1])
    return value


def _term_list(text: str, items: list, open_offset: int, close_offset: int) -> FreeMsg | ParseError:
    """A closed list of the term grammar: its term, or the first error of
    its subtree."""
    head = items[0] if items else None
    name = head[0] if type(head) is tuple else None
    arity = _TERM_ARITY.get(name)
    if arity is None:
        if name is not None and type(_value(name)) is str:
            return ParseError(f"unknown constructor {name!r}", head[1])
        return ParseError("expected a constructor name after '('", open_offset)
    if len(items) != arity + 1:
        return ParseError(
            f"{name} takes {arity} argument{'s' if arity != 1 else ''}, got {len(items) - 1}",
            close_offset,
        )
    if name == "mpair":
        left, right = items[1], items[2]
        if isinstance(left, FreeMsg) and isinstance(right, FreeMsg):
            return MPair(left, right)
        return _subterm_error(left) or _subterm_error(right)
    key = _nat(text, head, items[1], "nonce" if name == "nonce" else "key")
    if type(key) is not int:
        return key
    if name == "nonce":
        return Nonce(key)
    body = items[2]
    if not isinstance(body, FreeMsg):
        return _subterm_error(body)
    return (Crypt if name == "crypt" else Decrypt)(key, body)


def parse_term(text: str) -> FreeMsg:
    """Parse a message term: (nonce N) | (mpair T T) | (crypt K T) |
    (decrypt K T), whitespace-insensitive."""
    node = _read(text, _term_atom, partial(_term_list, text))
    error = _subterm_error(node)
    if error is not None:
        raise error
    return node


def print_term(t: FreeMsg) -> str:
    """A term as text that `parse_term` reads back.  Each node's opening
    text is emitted in pre-order from an explicit stack, which also holds
    the separators and closing parentheses still to come, so term depth is
    not bounded by recursion; the pieces are joined once."""
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
