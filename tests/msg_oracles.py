"""Reference implementations the message tests compare against.

A term-size count, an outermost rewriting strategy and a redex-free test,
a naive round-by-round rule closure, the closure as an explicit pair set,
and an eager sort of every related pair on a recursive term key, each
independent of the engine it checks in `quotients.messages`.
"""

from __future__ import annotations

import enum

from quotients.messages import (
    DEFAULT_KEYS,
    DEFAULT_NONCES,
    Crypt,
    Decrypt,
    FreeMsg,
    MPair,
    Nonce,
    _domains,
    closure_classes,
    enumerate_terms,
)


def size(t: FreeMsg) -> int:
    """Number of constructor nodes."""
    if isinstance(t, Nonce):
        return 1
    if isinstance(t, MPair):
        return 1 + size(t.left) + size(t.right)
    return 1 + size(t.body)  # Crypt / Decrypt


def term_key(t: FreeMsg):
    """A total-order key on terms, computed recursively: the order the pair
    stream's per-index sort keys must reproduce."""
    if isinstance(t, Crypt):
        return (0, t.key, term_key(t.body))
    if isinstance(t, Decrypt):
        return (1, t.key, term_key(t.body))
    if isinstance(t, MPair):
        return (2, term_key(t.left), term_key(t.right))
    return (3, t.value)


def _reduce_root(t: FreeMsg) -> FreeMsg | None:
    """Contract a cancellation redex at the root, if there is one."""
    if isinstance(t, Crypt) and isinstance(t.body, Decrypt) and t.key == t.body.key:
        return t.body.body
    if isinstance(t, Decrypt) and isinstance(t.body, Crypt) and t.key == t.body.key:
        return t.body.body
    return None


def is_normal(t: FreeMsg) -> bool:
    if _reduce_root(t) is not None:
        return False
    if isinstance(t, MPair):
        return is_normal(t.left) and is_normal(t.right)
    if isinstance(t, (Crypt, Decrypt)):
        return is_normal(t.body)
    return True


def _step_outermost(t: FreeMsg) -> FreeMsg | None:
    """One outermost-leftmost rewrite step, or None if t is normal."""
    reduced = _reduce_root(t)
    if reduced is not None:
        return reduced
    if isinstance(t, MPair):
        left = _step_outermost(t.left)
        if left is not None:
            return MPair(left, t.right)
        right = _step_outermost(t.right)
        if right is not None:
            return MPair(t.left, right)
        return None
    if isinstance(t, (Crypt, Decrypt)):
        body = _step_outermost(t.body)
        if body is not None:
            return type(t)(t.key, body)
        return None
    return None


def normalize_outermost(t: FreeMsg) -> FreeMsg:
    """Outermost reduction; agreement with `normalize` is confluence
    evidence, not an assumption."""
    while True:
        stepped = _step_outermost(t)
        if stepped is None:
            return t
        t = stepped


class MsgRule(enum.Enum):
    """The eight rules generating the message equivalence.  CD and DC are
    the cancellation axioms; NONCE, MPAIR, CRYPT, and DECRYPT propagate the
    relation through the constructors (and make it reflexive); SYM and
    TRANS close it into an equivalence.  Used only by the closure oracle."""

    CD = "CD"
    DC = "DC"
    NONCE = "NONCE"
    MPAIR = "MPAIR"
    CRYPT = "CRYPT"
    DECRYPT = "DECRYPT"
    SYM = "SYM"
    TRANS = "TRANS"


def rule_instances(
    rule: MsgRule,
    rel: set[tuple[FreeMsg, FreeMsg]],
    terms: list[FreeMsg],
    keys: tuple[int, ...],
) -> set[tuple[FreeMsg, FreeMsg]]:
    """Conclusions one rule can draw from `rel`, with every premise pair in
    `rel` and every mentioned term inside the universe `terms`."""
    tset = set(terms)
    out: set[tuple[FreeMsg, FreeMsg]] = set()
    if rule is MsgRule.CD:
        for t in terms:
            if isinstance(t, Crypt) and isinstance(t.body, Decrypt) and t.key == t.body.key:
                out.add((t, t.body.body))
    elif rule is MsgRule.DC:
        for t in terms:
            if isinstance(t, Decrypt) and isinstance(t.body, Crypt) and t.key == t.body.key:
                out.add((t, t.body.body))
    elif rule is MsgRule.NONCE:
        for t in terms:
            if isinstance(t, Nonce):
                out.add((t, t))
    elif rule is MsgRule.MPAIR:
        for x, x1 in rel:
            for y, y1 in rel:
                a, b = MPair(x, y), MPair(x1, y1)
                if a in tset and b in tset:
                    out.add((a, b))
    elif rule is MsgRule.CRYPT:
        for x, x1 in rel:
            for k in keys:
                a, b = Crypt(k, x), Crypt(k, x1)
                if a in tset and b in tset:
                    out.add((a, b))
    elif rule is MsgRule.DECRYPT:
        for x, x1 in rel:
            for k in keys:
                a, b = Decrypt(k, x), Decrypt(k, x1)
                if a in tset and b in tset:
                    out.add((a, b))
    elif rule is MsgRule.SYM:
        out.update((v, u) for u, v in rel)
    elif rule is MsgRule.TRANS:
        by_first: dict = {}
        for u, v in rel:
            by_first.setdefault(u, []).append(v)
        for u, v in rel:
            for w in by_first.get(v, ()):
                out.add((u, w))
    return out


def closure_oracle_naive(
    bound: int,
    keys=DEFAULT_KEYS,
    nonces=DEFAULT_NONCES,
) -> set[tuple[FreeMsg, FreeMsg]]:
    """Reference fixpoint: apply all eight rules round by round until
    nothing new appears.  Quadratic per round; only for small bounds, where
    it cross-checks the union-find engine."""
    keys, nonces = _domains(keys, nonces)
    terms = enumerate_terms(bound, keys, nonces)
    rel: set[tuple[FreeMsg, FreeMsg]] = set()
    while True:
        new: set[tuple[FreeMsg, FreeMsg]] = set()
        for rule in MsgRule:
            new |= rule_instances(rule, rel, terms, keys) - rel
        if not new:
            return rel
        rel |= new


def closure_oracle(
    bound: int,
    keys=DEFAULT_KEYS,
    nonces=DEFAULT_NONCES,
) -> set[tuple[FreeMsg, FreeMsg]]:
    """The least fixpoint of the eight rules, as an explicit pair set."""
    return {(u, v) for members in closure_classes(bound, keys, nonces)
            for u in members for v in members}


def sorted_pairs_naive(
    bound: int,
    keys=DEFAULT_KEYS,
    nonces=DEFAULT_NONCES,
) -> list[tuple[FreeMsg, FreeMsg]]:
    """Every within-class pair of the universe, sorted at once by total size
    and then by `term_key` of each side: the order the layered pair stream
    of `msg_relation` must reproduce."""
    pairs = [(u, v) for members in closure_classes(bound, keys, nonces)
             for u in members for v in members]
    pairs.sort(key=lambda p: (size(p[0]) + size(p[1]), term_key(p[0]), term_key(p[1])))
    return pairs
