"""S-expression reading and printing for terms and prefix expressions.

One reading loop, `_read`, serves both the message-term grammar and the
arithmetic expression grammars.  It runs over the matches of a token regex
it is given, with an explicit stack of open lists, so nesting depth is not
bounded by recursion; it raises the four syntax errors and hands each atom
and each closed list to a builder.  Two sets of builders use it:

* `parse_sexpr` reads the generic tokens, a parenthesis or a run of
  characters that are neither, and builds a generic `SAtom`/`SList` tree
  with source offsets, which the CLI's expression evaluator walks.
* `parse_term` builds message terms directly, each as its `)` is read.  Its
  regex tries three lexemes before the generic tokens: a whole nonce leaf
  `(nonce D)`, a pair head `(mpair` and a wrapper head `(crypt D` or
  `(decrypt D`, where D is a run of decimal digits that ends at whitespace
  or a parenthesis.  A lexeme's list becomes its node at once when it
  closes with terms as children, as many as the constructor takes, and its
  D is an int (not past the int-to-text digit limit).  Any other list, and
  a lexeme's list in every other case, goes to the list rule `_term_list`
  with the `(token, offset)` atoms the generic tokens would have read, so
  `_term_list` is the only code that words a term error.  A closed list
  becomes its term or the first `ParseError` of its subtree, carried as a
  value: first in the order of the node's own head, constructor, arity and
  key or value, then its children left to right.  The error is raised only
  once the whole text is read, so a syntax error anywhere in the text wins
  over a shape error.  A lexeme starts where its `(` would and holds no
  `)` but its own, so it moves no syntax error.

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


def _read(text: str, tokens: re.Pattern, atom, close, lexeme=None):
    """Read exactly one s-expression of `tokens`; anything trailing is an
    error.  Each atom becomes `atom(token, offset)` and each list, as its
    `)` is read, `close(items, open_offset, close_offset)` of the values of
    its items.  A token longer than `(` that starts with `(` is a lexeme,
    several tokens read as one: a whole list if it ends with `)`, else a
    list opened with its head.  Its list becomes `lexeme(match, items,
    close_offset)` of the values of the items after the head (`[]` for a
    whole list).  The term grammar's `lexeme` builds the node at once or
    falls back to its `close` with the atoms that the head's generic tokens
    would have given, so `close` words every error; `parse_sexpr`'s tokens
    have no lexemes."""
    # Per open list, innermost last: the match that opened it, kept only for
    # a lexeme, its open offset and the items of the list around it.
    # `items` are the innermost open list's; `top` holds the result.
    stack = []
    items = top = []
    for match in tokens.finditer(text):
        token = match[0]
        if token == ")":
            if not stack:
                raise ParseError("trailing input after expression" if top
                                 else "unexpected closing parenthesis", match.start())
            head, open_offset, outer = stack.pop()
            outer.append(close(items, open_offset, match.start()) if head is None
                         else lexeme(head, items, match.start()))
            items = outer
            continue
        if items is top and top:
            raise ParseError("trailing input after expression", match.start())
        if token == "(":
            stack.append((None, match.start(), items))
            items = []
        elif token[0] != "(":
            items.append(atom(token, match.start()))
        elif token[-1] == ")":
            items.append(lexeme(match, [], match.end() - 1))
        else:
            stack.append((match, match.start(), items))
            items = []
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
    return _read(text, _TOKEN, _sexpr_atom, _sexpr_list)


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


# The term grammar's lexemes, tried before the generic tokens: a whole nonce
# leaf, a pair head, and a wrapper head with its key.  Each group is an atom
# the generic tokens would read.  A digit run (regex \d is exactly
# str.isdecimal()) must end where a generic token ends: at whitespace or a
# parenthesis.
_TERM_TOKEN = re.compile(r"\((nonce)\s+(\d+)\s*\)|\((mpair)(?=[\s()])"
                         r"|\((crypt|decrypt)\s+(\d+)(?=[\s()])|" + _TOKEN.pattern)


def _term_lexeme(text: str, head: re.Match, items: list, close_offset: int) -> FreeMsg | ParseError:
    """The list a lexeme opened: its term if the children are terms, as many
    as the constructor takes, and the numeral is an int; else what
    `_term_list` makes of the head's atoms and the children."""
    kind = head.lastindex  # 2: a nonce leaf, 3: a pair head, 5: a wrapper head
    try:
        if kind == 2:
            return Nonce(int(head[2]))
        if kind == 3:
            if len(items) == 2 and isinstance(items[0], FreeMsg) and isinstance(items[1], FreeMsg):
                return MPair(items[0], items[1])
        elif len(items) == 1 and isinstance(items[0], FreeMsg):
            return (Crypt if head[4] == "crypt" else Decrypt)(int(head[5]), items[0])
    except ValueError:  # a numeral past the int-to-text digit limit
        pass
    atoms = [(token, head.start(g)) for g, token in enumerate(head.groups(), 1) if token is not None]
    return _term_list(text, atoms + items, head.start(), close_offset)


def parse_term(text: str) -> FreeMsg:
    """Parse a message term: (nonce N) | (mpair T T) | (crypt K T) |
    (decrypt K T), whitespace-insensitive."""
    node = _read(text, _TERM_TOKEN, _term_atom, partial(_term_list, text), partial(_term_lexeme, text))
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
