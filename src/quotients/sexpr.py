"""S-expression reading and printing for terms and prefix expressions.

One small reader serves both the message-term grammar and the arithmetic
expression grammars: it produces a generic node tree with source offsets,
and `parse_term` layers the constructor/arity checks for message terms on
top.  Reading is one regex and one loop over its tokens with an explicit
stack of open lists, so nesting depth is not bounded by recursion.
Offsets are 0-based character offsets into the input (for the ASCII
grammar these coincide with byte offsets).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .messages import Crypt, Decrypt, FreeMsg, MPair, Nonce


@dataclass(frozen=True)
class SAtom:
    value: int | str
    offset: int


@dataclass(frozen=True)
class SList:
    items: tuple
    open_offset: int
    close_offset: int


SNode = SAtom | SList

# A token is a parenthesis or a run of characters that are neither
# parentheses nor whitespace; regex \s is exactly str.isspace().
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _atom(token: str, offset: int) -> SAtom:
    # Only a token that starts, after its signs, with a decimal digit can be
    # an int; a numeral past the int-to-text digit limit stays a name.
    if token.lstrip("+-")[:1].isdecimal():
        try:
            return SAtom(int(token), offset)
        except ValueError:
            pass
    return SAtom(token, offset)


def parse_sexpr(text: str) -> SNode:
    """Parse exactly one s-expression; anything trailing is an error."""
    stack = []  # the open lists, innermost last, as (open offset, items)
    node = None
    for match in _TOKEN.finditer(text):
        token, offset = match[0], match.start()
        if node is not None:
            raise ParseError("trailing input after expression", offset)
        if token == "(":
            stack.append((offset, []))
            continue
        if token == ")":
            if not stack:
                raise ParseError("unexpected closing parenthesis", offset)
            open_offset, items = stack.pop()
            done = SList(tuple(items), open_offset, offset)
        else:
            done = _atom(token, offset)
        if stack:
            stack[-1][1].append(done)
        else:
            node = done
    if stack:
        raise ParseError("missing closing parenthesis", len(text))
    if node is None:
        raise ParseError("unexpected end of input", len(text))
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
