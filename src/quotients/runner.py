"""The bounded checks' working state and case runner.

`equiv`'s checks import this module on their first call, so a command that
only applies lifted operations never loads it.  A relation whose pairs come
from a `PairStream` keeps a `Sample` of them; the congruence checks read
each case's images from tables filled once per distinct argument tuple over
the sample's positions, and `check_equivalence` reads its cube of sampled
elements from one table of the decider.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import threading
from array import array
from functools import partial
from typing import Callable, Iterable, Sequence

from .equiv import EquivRelation, PairStream, _set

_UNASKED = 2  # an element's carrier verdict until a check asks for it
_NO_FORM = object()  # a late form's own canonical form until a check asks for it
_END = 0xFFFFFFFF  # no pair: where a chain of `Sample.follow` ends


class Sample:
    """What the checks draw from a relation's related pairs, grown with
    them.  A relation whose pairs come from a `PairStream` keeps one, as
    `EquivRelation._sample` (`sample_of`); for any other relation each check
    builds one.

    `elems` are the distinct elements of the pairs placed so far, in
    first-seen order; `index` maps each to its position, and `inside` holds
    each one's carrier verdict (0, 1, or `_UNASKED`).  `pos` holds two
    positions per placed pair, its left's and its right's, and `new` a byte:
    how many elements it drew first.  Both sides of the first `verified`
    pairs lie in the carrier.  With a canonicalizer, `forms` are the
    canonical forms of the first elements and `agree` has one byte per
    pair: whether its two forms agree.  A form is held as the equal element
    where one is placed at or before the element it is the form of; any
    other is a late form, kept in `late` as [form, position of the first
    element with that form, the form's own form or `_NO_FORM`].  The first
    `len(follow)` pairs are chained by their left elements, for the
    transitivity cases: `head[i]` is the first of them whose left is
    element i, and `follow[m]` the next after pair m (`_END` for none).
    Everything only grows, by appending, and under `lock`, so a smaller
    budget reads a prefix.
    """

    __slots__ = ("lock", "index", "elems", "inside", "pos", "new", "verified", "forms",
                 "agree", "late", "head", "follow")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.index: dict = {}
        self.elems: list = []
        self.inside = bytearray()
        self.pos = array("I")
        self.new = bytearray()
        self.verified = 0
        self.forms: list = []
        self.agree = bytearray()
        self.late: dict = {}
        self.head = array("I")
        self.follow = array("I")

    def verify(self, rel: EquivRelation, xs: Sequence, ys: Sequence) -> tuple | None:
        """The generator-contract cases of `check_equivalence` on the pairs of
        `xs` and `ys`, in order: each pair's carrier test, then its decider.
        Returns the first failure as (checked, law, witness), else None.  The
        carrier is asked once per element, at the first pair that draws it;
        a pair verified before pays only for its decider."""
        related, carrier, pos, inside = rel.decider, rel.carrier, self.pos, self.inside
        kept = min(self.verified, len(xs))
        for checked, (x, y) in enumerate(zip(itertools.islice(xs, kept), ys), 1):
            if not related(x, y):
                return checked, "pair-generator-decider", (x, y)
        self.place(xs, ys, len(xs))

        def carried(i: int, x) -> int:
            if inside[i] == _UNASKED:
                inside[i] = bool(carrier(x))
            return inside[i]

        for k in range(kept, len(xs)):
            x, y = xs[k], ys[k]
            if not (carried(pos[2 * k], x) and carried(pos[2 * k + 1], y)):
                law = "pair-generator-carrier"
            elif not related(x, y):
                law = "pair-generator-decider"
            else:
                continue
            self.verified = k
            return k + 1, law, (x, y)
        self.verified = max(self.verified, len(xs))
        return None

    def place(self, xs: Sequence, ys: Sequence, n: int) -> int:
        """Place the elements of the first `n` pairs of `xs` and `ys` not
        placed yet; return how many distinct elements those pairs draw.  An
        unhashable element raises `TypeError` before its pair is placed."""
        index, elems, inside, pos, new = self.index, self.elems, self.inside, self.pos, self.new
        for k in range(len(new), n):
            before = len(elems)
            hash(ys[k])
            for x in (xs[k], ys[k]):
                i = index.get(x)
                if i is None:
                    i = index[x] = len(elems)
                    elems.append(x)
                    inside.append(_UNASKED)
                pos.append(i)
            new.append(len(elems) - before)
        return _drawn(new, n)

    def link(self, n: int) -> None:
        """Chain the first `n` placed pairs by their left elements."""
        pos, head, follow = self.pos, self.head, self.follow
        linked = len(follow)
        if n <= linked:
            return
        head.extend(itertools.repeat(_END, len(self.elems) - len(head)))
        tail = dict(zip(pos[0:2 * linked:2], range(linked)))  # each left's last pair
        for m in range(linked, n):
            i = pos[2 * m]
            if head[i] == _END:
                head[i] = m
            else:
                follow[tail[i]] = m
            tail[i] = m
            follow.append(_END)

    def view(self, rel: EquivRelation, xs: Sequence, ys: Sequence):
        """The sample the pairs of `xs` and `ys` draw, as the checks read it:
        the distinct elements then the late forms they need, in first-seen
        order; with a canonicalizer, an iterator over those elements' forms
        (a late form's own form is asked as it is reached) and the agreement
        byte of each pair, else None for both.  Each element is canonicalized
        once, in first-seen order, when a view first reaches it."""
        drawn = self.place(xs, ys, len(xs))
        elems = self.elems[:drawn]
        canon = rel.canonicalize
        if canon is None:
            return elems, None, None
        index, pos, forms, agree = self.index, self.pos, self.forms, self.agree
        for k in range(len(agree), len(xs)):
            x, y = xs[k], ys[k]
            i, j = pos[2 * k], pos[2 * k + 1]
            if i == len(forms):
                forms.append(self._held(canon(x), i))
            if j == len(forms):
                forms.append(self._held(canon(y), j))
            agree.append(1 if forms[i] == forms[j] else 0)
        late = [entry for entry in self.late.values()
                if entry[1] < drawn and index.get(entry[0], drawn) >= drawn]
        own = map(partial(self._own_form, canon), late)
        return (elems + [entry[0] for entry in late], itertools.chain(forms[:drawn], own),
                agree[:len(xs)])

    def _held(self, c, p: int):
        """`c`, the form of element `p`, as the object kept for it."""
        k = self.index.get(c)
        if k is not None and k <= p:
            return self.elems[k]
        entry = self.late.get(c)
        if entry is None:
            entry = self.late[c] = [c if k is None else self.elems[k], p, _NO_FORM]
        return entry[0]

    def _own_form(self, canon: Callable, entry: list):
        if entry[2] is _NO_FORM:
            with self.lock:
                if entry[2] is _NO_FORM:
                    entry[2] = canon(entry[0])
        return entry[2]


_MAKING = threading.Lock()  # held while a relation's kept sample is made


def sample_of(rel: EquivRelation) -> Sample:
    """The sample a check of `rel` reads: the relation's kept one, made on
    first use, when its pairs come from a `PairStream`, else a new one."""
    if not isinstance(rel.related_pairs, PairStream):
        return Sample()
    with _MAKING:
        if rel._sample is None:
            _set(rel, "_sample", Sample())
    return rel._sample


def equivalence(rel: EquivRelation, budget: int) -> tuple[int, tuple | None]:
    """`check_equivalence`'s cases on the first `budget` related pairs of
    `rel`: how many ran, and the violated law with its witness, or None."""
    xs, ys, n = _columns(rel, budget)
    xs, ys = xs[:n], ys[:n]
    if not xs:
        return 0, None
    sample = sample_of(rel)
    with sample.lock:
        failure = sample.verify(rel, xs, ys)
        if failure is not None:
            return failure[0], failure[1:]
        elems, forms, agree = sample.view(rel, xs, ys)
        sample.link(len(xs))
    checked = len(xs)
    cases = _law_cases(rel, xs, ys, budget, sample, elems, forms, agree)
    for checked, violation in enumerate(cases, checked + 1):
        if violation is not None:
            return checked, violation
    return checked, None


def _law_cases(rel: EquivRelation, xs: Sequence, ys: Sequence, budget: int,
               sample: Sample, elems: list, forms, agree):
    """The cases `check_equivalence` tests once the generator's contract
    holds on the pairs of `xs` and `ys`, in order: None for a case that
    holds, else the violated law and its witness.  `elems`, `forms` and
    `agree` are the sample's view of those pairs (`Sample.view`), whose
    first `len(xs)` pairs `sample` has chained."""
    related = rel.decider
    for x in elems:
        yield None if related(x, x) else ("reflexivity", (x, x))
    for x, y in zip(xs, ys):
        yield None if related(y, x) else ("symmetry", (x, y))

    # Chain generated pairs through shared midpoints for transitivity: each
    # pair (x, y), in order, with each pair (y, z).
    chains = _chains(sample.pos, sample.head, sample.follow, len(xs))
    for k, m in itertools.islice(chains, budget):
        yield None if related(xs[k], ys[m]) else ("transitivity", (xs[k], ys[k], ys[m]))

    # Cross-sample a bounded cube of elements for laws the generator's own
    # pairs cannot expose (e.g. unrelated elements turning out related).
    yield from _cube_cases(related, elems[: round(budget ** (1 / 3)) + 2], budget)

    if forms is not None:
        for x, c in zip(elems, forms):
            yield None if related(x, c) else ("canonical-related", (x, c))
        for x, y, same in zip(xs, ys, agree):
            yield None if same else ("canonical-agreement", (x, y))


def _chains(pos: array, head: array, follow: array, n: int) -> Iterable[tuple[int, int]]:
    """(k, m) for each of the first `n` chained pairs k, in order, and each
    of them m, in order, whose left element is pair k's right."""
    for k in range(n):
        m = head[pos[2 * k + 1]]
        while m < n:
            yield k, m
            m = follow[m]


def _cube_cases(related: Callable, cube: list, budget: int):
    """The cube's cases of `_law_cases`: symmetry on the first `budget`
    pairs of `cube` elements, then transitivity on the first `budget`
    triples, of which only those whose premises hold count.  The decider
    is asked once per cell of the cube, and each case reads its premises
    and conclusion from those cells; should a cell raise, the cases are
    asked one by one, as they come."""
    c = len(cube)
    try:
        cells = [related(a, b) for a in cube for b in cube]
    except Exception:
        yield from _cube_cases_one_by_one(related, cube, budget)
        return
    rows, cols = [0] * c, [0] * c  # bit b of rows[a] (of cols[b]): related(a, b)
    for k in itertools.compress(range(c * c), cells):
        a, b = divmod(k, c)
        rows[a] |= 1 << b
        cols[b] |= 1 << a
    for a in range(min(c, -(-budget // c))):
        width = (1 << min(c, budget - a * c)) - 1
        bad = rows[a] & ~cols[a] & width  # a ~ b but not b ~ a
        if bad:
            b = (bad & -bad).bit_length() - 1
            yield from itertools.repeat(None, b)
            yield "symmetry", (cube[a], cube[b])
            return
        yield from itertools.repeat(None, width.bit_length())
    for ab in range(min(c * c, -(-budget // c))):
        a, b = divmod(ab, c)
        if rows[a] >> b & 1:
            held = rows[b] & (1 << min(c, budget - ab * c)) - 1  # the premises b ~ x
            bad = held & ~rows[a]
            if bad:
                x = (bad & -bad).bit_length() - 1
                yield from itertools.repeat(None, bin(held & (1 << x) - 1).count("1"))
                yield "transitivity", (cube[a], cube[b], cube[x])
                return
            yield from itertools.repeat(None, bin(held).count("1"))


def _cube_cases_one_by_one(related: Callable, cube: list, budget: int):
    """`_cube_cases`, asking the decider as each case comes."""
    for a, b in itertools.islice(itertools.product(cube, repeat=2), budget):
        yield None if not related(a, b) or related(b, a) else ("symmetry", (a, b))
    for a, b, c in itertools.islice(itertools.product(cube, repeat=3), budget):
        if related(a, b) and related(b, c):
            yield None if related(a, c) else ("transitivity", (a, b, c))


def respects(f: Callable, eq: Callable, relations: Sequence[EquivRelation], budget: int):
    """`check_respects`' cases: how many ran, and the first counterexample,
    or None."""
    n = len(relations)
    side = budget if n <= 1 else int(budget ** (1 / n)) + 1
    columns = [_columns(rel, side) for rel in relations]
    if n == 0:
        checked, failed = 1, None if eq(f(), f()) else 0
    else:
        sources = [_positions(rel, *c) for rel, c in zip(relations, columns)]
        checked, failed = _scan(f, eq, _product_segments(f, sources, columns, budget))
    if failed is None:
        return checked, None
    case = []
    for xs, ys, count in reversed(columns):
        failed, k = divmod(failed, count)
        case.append((xs[k], ys[k]))
    return checked, case[0] if n == 1 else tuple(case[::-1])


def _columns(rel: EquivRelation, budget: int) -> tuple[Sequence, Sequence, int]:
    """The first `budget` related pairs of `rel` as two columns, and how
    many they are: a stream's kept columns, uncopied, may hold more."""
    if isinstance(rel.related_pairs, PairStream):
        return rel.related_pairs._kept(budget)
    xs, ys = tuple(zip(*itertools.islice(rel.related_pairs(budget), budget))) or ((), ())
    return xs, ys, len(xs)


def _positions(rel: EquivRelation, xs: Sequence, ys: Sequence, n: int):
    """The sample of the first `n` pairs of `xs` and `ys`: its elements,
    each pair's left and right position among them, interleaved, and how
    many elements each pair draws first, as `Sample` keeps them (each may
    hold more).  Where an element is unhashable, each slot of the pairs is
    an element of its own."""
    sample = sample_of(rel)
    with sample.lock:
        try:
            sample.place(xs, ys, n)
        except TypeError:
            slots = [z for pair in zip(xs[:n], ys[:n]) for z in pair]
            return slots, range(2 * n), bytearray(b"\2") * n
    return sample.elems, sample.pos, sample.new


def _drawn(new: bytearray, n: int) -> int:
    """How many elements the first `n` pairs draw: sum(new[:n]), counted
    in C, since a pair draws at most two."""
    return new.count(1, 0, n) + 2 * new.count(2, 0, n)


def _scan(f: Callable, eq: Callable, segments: Iterable) -> tuple[int, int | None]:
    """Run the cases of `segments` in order; return how many ran and the
    position of the first whose images `eq` does not relate, or None.

    A segment is (size, fill, lefts, rights, cases): `fill()` asks `f` for
    the images of its `size` cases that no earlier segment asked, into the
    tables that the iterators `lefts` and `rights` read, so `eq` is asked
    once per case, in order, on images asked once per distinct argument
    tuple.  Should `fill()` raise, the segment's cases (`cases()` gives each
    one's left and right arguments) are asked one by one, as a scan with no
    table would: one that fails before the raising one still refutes."""
    checked = 0
    for size, fill, lefts, rights, cases in segments:
        try:
            fill()
            raised = None
        except Exception as exc:
            raised = exc
        if raised is not None:
            failed = next((k for k, (xs, ys) in enumerate(cases()) if not eq(f(*xs), f(*ys))),
                          None)
            if failed is None:
                raise raised
        else:
            try:
                failed = operator.indexOf(map(operator.not_, map(eq, lefts, rights)), True)
            except ValueError:
                failed = None
        if failed is not None:
            return checked + failed + 1, checked + failed
        checked += size
    return checked, None


def _cases(lead: tuple, xs: Sequence, other: tuple, ys: Sequence, lo: int, hi: int,
           swapped: bool = False) -> Iterable[tuple[tuple, tuple]]:
    """The cases (lead + (x,), other + (y,)) for the x and y at each
    position from `lo` to `hi` of `xs` and `ys`, or (lead + (x,), (y,) +
    other) when `swapped`."""
    lefts = map(lead.__add__, zip(itertools.islice(xs, lo, hi)))
    rights = zip(itertools.islice(ys, lo, hi))
    if swapped:
        return zip(lefts, map(tuple.__add__, rights, itertools.repeat(other)))
    return zip(lefts, map(other.__add__, rights))


_FIRST_FILL = 16  # the cases a one-argument check images first; each fill after doubles
_HOLE = object()  # a table cell not asked yet


def _product_segments(f: Callable, sources: list, columns: list, limit: int,
                      tables: dict | None = None):
    """`_scan`'s segments for the first `limit` cases of the row-major
    product of the per-argument `columns` (`_columns`), with each
    argument's sample in `sources` (`_positions`).

    One argument: one table, of the images of the sample's elements in
    first-seen order; a segment images those its cases draw first,
    `_FIRST_FILL` cases and then twice as many each time.  More: one
    segment per row (the last argument under fixed leading ones), and a
    table per tuple of leading positions.  It holds the images at the last
    argument's positions in the order the side (left or right) that first
    reads it meets them, then those the other side adds, so a whole row's
    cells on either side are a prefix.  `tables` may hold some of them
    already.  A check keeps every image it asks for until it returns;
    between checks only the relation's `Sample` is kept."""
    *lead, (elems, pos, new) = sources
    xs, ys, width = columns[-1]
    total = min(limit, width * math.prod(c[2] for c in columns[:-1]))
    if not lead:
        images: list = []
        lo, size = 0, _FIRST_FILL
        while lo < total:
            hi = min(total, lo + size)
            yield (hi - lo, partial(_fill_rows, f, [(images, (), elems, _drawn(new, hi))]),
                   map(images.__getitem__, pos[2 * lo:2 * hi:2]),
                   map(images.__getitem__, pos[2 * lo + 1:2 * hi:2]),
                   partial(_cases, (), xs, (), ys, lo, hi))
            lo, size = hi, 2 * size
        return
    if not total:
        return
    rows = itertools.islice(zip(
        itertools.product(*(p[0:2 * c[2]:2] for (_, p, _), c in zip(lead, columns))),
        itertools.product(*(p[1:2 * c[2]:2] for (_, p, _), c in zip(lead, columns))),
        itertools.product(*(itertools.islice(c[0], c[2]) for c in columns[:-1])),
        itertools.product(*(itertools.islice(c[1], c[2]) for c in columns[:-1]))),
        -(-total // width))
    cols = (pos[0:2 * width:2], pos[1:2 * width:2])
    layouts = []  # per first side: elements in table order, gathers and prefixes per side
    for side in (0, 1):
        order = list(dict.fromkeys(itertools.chain(cols[side], cols[1 - side])))
        at = {j: i for i, j in enumerate(order)}
        prefixes = [len(order), len(order)]
        prefixes[side] = len(set(cols[side]))
        layouts.append(([elems[j] for j in order], [list(map(at.__getitem__, c)) for c in cols],
                        prefixes))
    if tables is None:
        tables = {}  # leading positions -> images, in the layout of its first side
    first: dict = {}  # leading positions -> the side (0 left, 1 right) that first reads them
    for r, (lt, rt, lx, rx) in enumerate(rows):
        w = min(width, total - r * width)
        work, reads = [], []
        for side, t in enumerate((lt, rt)):
            items, gathers, prefixes = layouts[first.setdefault(t, side)]
            table = tables.setdefault(t, [])
            gather = gathers[side] if w == width else gathers[side][:w]
            if w < width or len(table) < prefixes[side]:
                args = [e[p] for (e, _, _), p in zip(lead, t)]
                work.append((table, args, items, prefixes[side] if w == width else gather))
            reads.append(map(table.__getitem__, gather))
        yield (w, partial(_fill_rows, f, work), reads[0], reads[1],
               partial(_cases, lx, xs, rx, ys, 0, w))


def _fill_rows(f: Callable, work: list) -> None:
    """Image each (table, leading arguments, items, wanted) of `work`:
    f(*leading arguments, items[i]) at each index i wanted that the table
    lacks, where wanted is a prefix's length or a list of indices."""
    for table, args, items, wanted in work:
        reps = map(itertools.repeat, args)
        if isinstance(wanted, int):
            table += map(f, *reps, itertools.islice(items, len(table), wanted))
            continue
        need = [i for i in dict.fromkeys(wanted) if i >= len(table) or table[i] is _HOLE]
        table += itertools.repeat(_HOLE, max(need, default=-1) + 1 - len(table))
        images = map(f, *reps, map(items.__getitem__, need))
        collections.deque(map(table.__setitem__, need, images), maxlen=0)


def commutativity(f: Callable, eq: Callable, rel: EquivRelation, budget: int):
    """`respects2_via_commutativity`'s cases, from a budget of 2: how many
    ran, the elements (a, b) at which the probe failed, or None, and the
    first-argument stage's counterexample, or None.  The probe and that
    stage read one table of f(a, b) over the sampled elements, in which the
    probe's f(a, b) and f(b, a) are two cells.  A check keeps every image
    it asks for until it returns; between checks only the relation's
    `Sample` is kept."""
    side = int(budget ** 0.5) + 1
    xs, ys, n = _columns(rel, side)
    xs, ys = xs[:n], ys[:n]
    sample = sample_of(rel)
    with sample.lock:
        elems = sample.view(rel, xs, ys)[0]
        pos = sample.pos
    if not elems:
        return 0, None, None

    k = len(elems)
    rows: list = [[] for _ in elems]  # rows[i][j] is f(elems[i], elems[j]); each a prefix
    checked, failed = _scan(f, eq, _probe_segments(f, rows, elems, min(budget // 2, k * k)))
    if failed is not None:
        return checked, (elems[failed // k], elems[failed % k]), None

    # The first-argument cases: pairs (x, y) against each element c as the
    # pair (c, c), over the probe's rows, which are their tables.
    diagonal = (elems, array("I", itertools.chain.from_iterable(zip(range(k), range(k)))),
                bytearray(b"\1") * k)
    tables = {(i,): row for i, row in enumerate(rows)}
    firsts, failed = _scan(f, eq, _product_segments(
        f, [(elems, pos, sample.new), diagonal], [(xs, ys, n), (elems, elems, k)],
        budget - checked, tables))
    if failed is None:
        return checked + firsts, None, None
    c = elems[failed % k]
    return checked + firsts, None, ((xs[failed // k], ys[failed // k]), (c, c))


def _probe_segments(f: Callable, rows: list, elems: list, limit: int):
    """`_scan`'s segments for the commutativity probe: f(a, b) against
    f(b, a) for the first `limit` element pairs (a, b) in row-major order,
    one segment per a, reading row a and column a of `rows`, where the
    first-argument cases read them again.  A check keeps every image it
    asks for until it returns; between checks only the relation's
    `Sample` is kept."""
    k = len(elems)
    for i in range(-(-limit // k)):
        w = min(k, limit - i * k)
        yield (w, partial(_fill_probe_row, f, rows, elems, i, w),
               itertools.islice(rows[i], w), map(operator.itemgetter(i), rows[:w]),
               partial(_cases, (elems[i],), elems, (elems[i],), elems, 0, w, swapped=True))


def _fill_probe_row(f: Callable, rows: list, elems: list, i: int, w: int) -> None:
    """Image the first `w` cells of row i, and the cells of column i in
    rows i + 1 to w - 1.  Every earlier probe row is done, so each row
    below row i holds its first i cells."""
    a = elems[i]
    _fill_rows(f, [(rows[i], (a,), elems, w)])
    collections.deque(map(list.append, rows[i + 1:w], map(f, elems[i + 1:w], itertools.repeat(a))),
                      maxlen=0)
