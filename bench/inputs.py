"""Seeded benchmark inputs and the references they are checked against.

Nothing here imports the code under test.  Message terms are plain tuples
("nonce", n) | ("mpair", l, r) | ("crypt", k, b) | ("decrypt", k, b); the
generator builds each base term redex-free, so its normal form is the base
itself, and the reference functions below read their expected outputs off
that base.  Arithmetic expressions are evaluated with `int` and
`fractions.Fraction`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

KEYS = (0, 1, 2)
NONCES = (0, 1, 2, 3, 4)
UNARY = ("crypt", "decrypt")

# ---------------------------------------------------------------------------
# Message terms


def term_text(t) -> str:
    parts, stack = [], [t]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            parts.append(t)
        elif t[0] == "nonce":
            parts.append(f"(nonce {t[1]})")
        elif t[0] == "mpair":
            parts.append("(mpair ")
            stack += [")", t[2], " ", t[1]]
        else:
            parts.append(f"({t[0]} {t[1]} ")
            stack += [")", t[2]]
    return "".join(parts)


def term_size(t) -> int:
    n, stack = 0, [t]
    while stack:
        t = stack.pop()
        n += 1
        if t[0] == "mpair":
            stack += [t[1], t[2]]
        elif t[0] != "nonce":
            stack.append(t[2])
    return n


def term_depth(t) -> int:
    best, stack = 0, [(t, 1)]
    while stack:
        t, d = stack.pop()
        best = max(best, d)
        if t[0] == "mpair":
            stack += [(t[1], d + 1), (t[2], d + 1)]
        elif t[0] != "nonce":
            stack.append((t[2], d + 1))
    return best


def _wrap(rng: random.Random, body):
    tag, key = rng.choice(UNARY), rng.choice(KEYS)
    if body[0] in UNARY and body[0] != tag and body[1] == key:
        tag = body[0]  # the other tag would make a cancellation redex
    return (tag, key, body)


def random_term(rng: random.Random, size: int):
    """A redex-free term of exactly `size` nodes."""
    if size == 1:
        return ("nonce", rng.choice(NONCES))
    if size >= 3 and rng.random() < 0.5:
        left = rng.randint(1, size - 2)
        return ("mpair", random_term(rng, left), random_term(rng, size - 1 - left))
    return _wrap(rng, random_term(rng, size - 1))


def _cancel_pair(rng: random.Random, t):
    outer = rng.choice(UNARY)
    inner = UNARY[1 - UNARY.index(outer)]
    k = rng.choice(KEYS)
    return (outer, k, (inner, k, t))


def inflate(rng: random.Random, t, rate: float):
    """Wrap random subterms in cancelling crypt/decrypt pairs; the normal
    form does not change."""
    if t[0] == "mpair":
        t = ("mpair", inflate(rng, t[1], rate), inflate(rng, t[2], rate))
    elif t[0] != "nonce":
        t = (t[0], t[1], inflate(rng, t[2], rate))
    if rng.random() < rate:
        t = _cancel_pair(rng, t)
    return t


def chain_layers(rng: random.Random, depth: int) -> list:
    """A redex-free spine of `depth` layers, bottom-up: a nonce, then mostly
    crypt/decrypt layers, sometimes a pair whose left side is small and
    whose right side continues the spine."""
    layers = [("nonce", rng.choice(NONCES))]
    for _ in range(depth - 1):
        below = layers[-1]
        if rng.random() < 0.1:
            layers.append(("mpair", random_term(rng, rng.randint(1, 3))))
            continue
        tag, key = rng.choice(UNARY), rng.choice(KEYS)
        if below[0] in UNARY and below[0] != tag and below[1] == key:
            tag = below[0]
        layers.append((tag, key))
    return layers


def fold_chain(rng: random.Random, layers: list, wrapped: set[int]):
    """Build the chain without recursion, wrapping layer i in a cancelling
    pair when i is in `wrapped`."""
    t = layers[0]
    for i, layer in enumerate(layers[1:], start=1):
        t = ("mpair", layer[1], t) if layer[0] == "mpair" else (layer[0], layer[1], t)
        if i in wrapped:
            t = _cancel_pair(rng, t)
    return t


def ref_normalize(t):
    """Innermost cancellation, written independently of the program."""
    if t[0] == "nonce":
        return t
    if t[0] == "mpair":
        return ("mpair", ref_normalize(t[1]), ref_normalize(t[2]))
    body = ref_normalize(t[2])
    if body[0] in UNARY and body[0] != t[0] and body[1] == t[1]:
        return body[2]
    return (t[0], t[1], body)


def ref_left(t):
    while t[0] in UNARY:
        t = t[2]
    return t[1] if t[0] == "mpair" else t


def ref_right(t):
    while t[0] in UNARY:
        t = t[2]
    return t[2] if t[0] == "mpair" else t


def ref_nonces(t) -> frozenset:
    out, stack = set(), [t]
    while stack:
        t = stack.pop()
        if t[0] == "nonce":
            out.add(t[1])
        elif t[0] == "mpair":
            stack += [t[1], t[2]]
        else:
            stack.append(t[2])
    return frozenset(out)


def ref_discrim(t, truncated: bool = False) -> int:
    wrappers = []
    while t[0] in UNARY:
        wrappers.append(t[0])
        t = t[2]
    d = 0 if t[0] == "nonce" else 1
    for tag in reversed(wrappers):
        d = d + 2 if tag == "crypt" else (max(d - 2, 0) if truncated else d - 2)
    return d


def parse_text(text: str):
    """Read the s-expression form of a term back into a tuple."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[list] = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            node = stack.pop()
            head = node[0]
            if head == "nonce" and len(node) == 2:
                stack[-1].append(("nonce", int(node[1])))
            elif head == "mpair" and len(node) == 3:
                stack[-1].append(("mpair", node[1], node[2]))
            elif head in UNARY and len(node) == 3:
                stack[-1].append((head, int(node[1]), node[2]))
            else:
                raise ValueError(f"not a term: {text!r}")
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"not a term: {text!r}")
    return stack[0][0]


class TermCase:
    """One msg-terms op: the text to parse, a second inflation of the same
    base, the pool index of a case with another normal form, and the
    expected outputs."""

    __slots__ = ("tier", "text", "twin", "other", "nodes", "depth",
                 "nf_text", "left_text", "right_text", "nonces", "discrim")

    def __init__(self, tier: str, base, inflated, twin):
        self.tier = tier
        self.text = term_text(inflated)
        self.twin = twin
        self.other = None
        self.nodes = term_size(inflated)
        self.depth = term_depth(inflated)
        self.nf_text = term_text(base)
        self.left_text = term_text(ref_left(base))
        self.right_text = term_text(ref_right(base))
        self.nonces = ref_nonces(base)
        self.discrim = ref_discrim(base)


def _spread(lo: int, hi: int, n: int, rng: random.Random) -> list[int]:
    """n values covering [lo, hi] evenly, shuffled: every seed draws the
    same size distribution, only the shapes differ."""
    values = [lo + (hi - lo) * i // max(n - 1, 1) for i in range(n)]
    rng.shuffle(values)
    return values


# Pool of a msg-terms run: (tier, count).  Base sizes: light 5-20 nodes,
# mid 50-150 nodes; heavy chains are 300-400 deep once inflated, with
# normal forms at most 300 deep, below where structural equality on
# today's recursive dataclasses exceeds the default recursion limit.
TERM_POOL = (("light", 240), ("mid", 48), ("heavy", 6))
INFLATE_RATE = 0.25


def term_cases(seed: int, scale: float = 1.0) -> list[TermCase]:
    rng = random.Random(f"msg-terms/{seed}")
    cases: list[TermCase] = []
    for tier, count in TERM_POOL:
        count = max(1, int(count * scale))
        if tier == "heavy":
            depths = _spread(250, 300, count, rng)
            targets = _spread(300, 400, count, rng)
            for base_depth, target in zip(depths, targets):
                layers = chain_layers(rng, base_depth)
                wrappers = max(0, (target - base_depth) // 2)
                base = fold_chain(rng, layers, set())
                first = fold_chain(rng, layers, set(rng.sample(range(1, base_depth), wrappers)))
                second = fold_chain(rng, layers, set(rng.sample(range(1, base_depth), wrappers)))
                cases.append(TermCase(tier, base, first, second))
        else:
            lo, hi = (5, 20) if tier == "light" else (50, 150)
            for size in _spread(lo, hi, count, rng):
                base = random_term(rng, size)
                cases.append(TermCase(tier, base, inflate(rng, base, INFLATE_RATE),
                                      inflate(rng, base, INFLATE_RATE)))
    rng.shuffle(cases)
    for i, case in enumerate(cases):
        j = (i + 1) % len(cases)
        while cases[j].nf_text == case.nf_text:
            j = (j + 1) % len(cases)
        case.other = j
    return cases


# ---------------------------------------------------------------------------
# Arithmetic expressions: postfix programs of (opcode, literal)

LIT, NEG, ADD, SUB, MUL, INV = "lit", "neg", "+", "-", "*", "inv"


def _operand(rng: random.Random, max_digits: int) -> int:
    digits = rng.randint(1, max_digits)
    value = rng.randrange(10 ** (digits - 1), 10 ** digits) if digits > 1 else rng.randrange(10)
    return -value if rng.random() < 0.5 else value


def _tree(rng: random.Random, ops: int, leaf, unary: tuple, binary: tuple):
    """A random expression tree with `ops` operator nodes and its value."""
    if ops == 0:
        return leaf()
    if rng.random() < 0.25:
        sub, value = _tree(rng, ops - 1, leaf, unary, binary)
        op = rng.choice(unary)
        if op == INV and value == 0:
            op = NEG
        return (op, sub), (-value if op == NEG else 1 / value)
    left_ops = rng.randint(0, ops - 1)
    (a, va), (b, vb) = (_tree(rng, left_ops, leaf, unary, binary),
                        _tree(rng, ops - 1 - left_ops, leaf, unary, binary))
    op = rng.choice(binary)
    value = va + vb if op == ADD else va - vb if op == SUB else va * vb
    return (op, a, b), value


def postfix(tree) -> list:
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append((node, None))
        elif node[0] == LIT:
            out.append(node)
        else:
            stack.append(node[0])
            stack += reversed(node[1:])
    return out


def prefix_text(tree) -> str:
    if tree[0] == LIT:
        return str(tree[1])
    return "(" + " ".join([tree[0]] + [prefix_text(sub) for sub in tree[1:]]) + ")"


def int_tree(rng: random.Random, ops: int, max_digits: int):
    return _tree(rng, ops, lambda: _int_leaf(rng, max_digits), (NEG,), (ADD, SUB, MUL))


def _int_leaf(rng: random.Random, max_digits: int):
    v = _operand(rng, max_digits)
    return (LIT, v), v


def rat_tree(rng: random.Random, ops: int, max_digits: int, integer_leaves: bool):
    def leaf():
        num = _operand(rng, max_digits)
        den = 1 if integer_leaves else (_operand(rng, max_digits) or 1)
        return (LIT, (num, den) if not integer_leaves else num), Fraction(num, den)

    return _tree(rng, ops, leaf, (NEG, INV), (ADD, MUL))


@dataclass(frozen=True)
class ArithCase:
    """One arith op: a postfix program, its reference value, and for
    integer programs the pivot that `le` compares against."""

    tier: str
    program: list
    value: int | Fraction
    pivot: int | None
    digits: list  # decimal digits of each operand


# Pool of an arith run: integer programs (light) and rational programs
# (mid), 3-9 operators each, operands from one digit to 30 digits.
ARITH_POOL = (("light", 200), ("mid", 200))
ARITH_OPS = (3, 9)
MAX_DIGITS = 30


def arith_cases(seed: int, scale: float = 1.0) -> list[ArithCase]:
    rng = random.Random(f"arith/{seed}")
    cases = []
    for tier, count in ARITH_POOL:
        for ops in _spread(*ARITH_OPS, max(1, int(count * scale)), rng):
            if tier == "light":
                tree, value = int_tree(rng, ops, MAX_DIGITS)
                pivot = _operand(rng, MAX_DIGITS)
            else:
                tree, value = rat_tree(rng, ops, MAX_DIGITS, integer_leaves=False)
                pivot = None
            program = postfix(tree)
            digits = [len(str(abs(v))) for op, lit in program if op == LIT
                      for v in (lit if isinstance(lit, tuple) else (lit,))]
            cases.append(ArithCase(tier, program, value, pivot, digits))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# The light and msg-fn CLI calls of one cold-cli cycle

MSG_FUNCTIONS = ("left", "right", "nonces", "discrim")


def _expected_fn(fn: str, base):
    if fn == "left":
        return term_text(ref_left(base))
    if fn == "right":
        return term_text(ref_right(base))
    if fn == "nonces":
        return sorted(ref_nonces(base))
    return ref_discrim(base)


def cli_cycle(rng: random.Random) -> list[tuple[str, list[str], int, dict, int]]:
    """One cycle of light and msg-fn invocations with seeded arguments:
    (tier, argv, exit code, payload, nodes parsed)."""
    out = []
    for fn in MSG_FUNCTIONS:
        base = random_term(rng, rng.randint(5, 20))
        term = inflate(rng, base, INFLATE_RATE)
        payload = {"certified": True, "function": fn, "result": _expected_fn(fn, base)}
        out.append(("mid", ["msg-fn", fn, term_text(term)], 0, payload, term_size(term)))

    base = random_term(rng, rng.randint(5, 20))
    term = inflate(rng, base, INFLATE_RATE)
    out.append(("light", ["msg-nf", term_text(term)], 0, {"normal_form": term_text(base)},
                term_size(term)))

    lhs_base = random_term(rng, rng.randint(5, 20))
    equal = rng.random() < 0.5
    rhs_base = lhs_base if equal else random_term(rng, rng.randint(5, 20))
    equal = rhs_base == lhs_base
    lhs, rhs = inflate(rng, lhs_base, INFLATE_RATE), inflate(rng, rhs_base, INFLATE_RATE)
    payload = {"equal": equal, "lhs_nf": term_text(lhs_base), "rhs_nf": term_text(rhs_base)}
    out.append(("light", ["msg-eq", term_text(lhs), term_text(rhs)], 0 if equal else 1, payload,
                term_size(lhs) + term_size(rhs)))

    tree, value = int_tree(rng, rng.randint(2, 5), 12)
    root = rng.choice(("value", "le", "nat"))
    if root == "le":
        pivot_tree, pivot = int_tree(rng, 1, 12)
        tree, le = ("le", tree, pivot_tree), value <= pivot
        expected = (0 if le else 1, {"value": le})
    elif root == "nat":
        tree = ("nat", tree)
        expected = (0, {"value": max(value, 0)})
    else:
        pair = [value, 0] if value >= 0 else [0, -value]
        expected = (0, {"pair": pair, "value": value})
    out.append(("light", ["int-eval", prefix_text(tree)], *expected, 0))

    tree, value = rat_tree(rng, rng.randint(2, 5), 6, integer_leaves=True)
    out.append(("light", ["rat-eval", prefix_text(tree)], 0,
                {"den": value.denominator, "num": value.numerator}, 0))
    return out
