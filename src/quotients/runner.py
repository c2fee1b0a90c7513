"""The bounded checks' working state and case runner.

`equiv`'s checks import this module on their first call, so a command that
only applies lifted operations never loads it.  A relation whose pairs come
from a `PairStream` keeps a `Sample` of them; the congruence checks read
each case's images from tables filled once per distinct argument tuple over
the sample's positions, and `check_equivalence` asks each law block as one
verdict stream, and each cube cell once, when a case first needs it.
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
_STOPPED = "StopIteration raised inside a check's cases"  # see `_first_false`


class Sample:
    """What the checks draw from a relation's related pairs, grown with
    them.  A relation whose pairs come from a `PairStream` keeps one, as
    `EquivRelation._sample` (`sample_of`); for any other relation each check
    builds one.

    `elems` are the distinct elements of the pairs placed so far, in
    first-seen order, an unhashable one at each slot (`place`); `index` maps
    each hashable one to its position.  `pos` holds each placed pair's left
    and right positions, and `new` how many elements it drew first.  What a
    check asks of them covers a prefix: `inside` holds the carrier verdict
    (0, 1, or `_UNASKED`) of the elements `verify` has drawn, both sides of
    the first `verified` pairs lie in the carrier, and with a canonicalizer
    `forms` are the canonical forms of the elements `view` has drawn and
    `agree` has one byte per pair it has read: whether its two forms agree.
    A form is held as the equal element where one is placed at or before
    the element it is the form of; any other is a late form, kept in `late`
    as [form, position of the first element with that form, the form's own
    form or `_NO_FORM`].  Everything only grows, by appending, and under
    `lock`, so a smaller budget reads a prefix; except `chains`: a budget
    and its transitivity cases as columns of pair positions k and m
    (`_chains`), for the last budget a check asked, which a check at
    another budget replaces.  So a repeated `check_equivalence` at the same
    budget asks only its decider.
    """

    __slots__ = ("lock", "index", "elems", "inside", "pos", "new", "verified", "forms",
                 "agree", "late", "chains")

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
        self.chains: tuple = (0, array("I"), array("I"))

    def verify(self, rel: EquivRelation, xs: Sequence, ys: Sequence) -> tuple | None:
        """The generator-contract cases of `check_equivalence` on the pairs of
        `xs` and `ys`, in order: each pair's carrier test, then its decider.
        Returns the first failure as (checked, law, witness), else None.  The
        carrier is asked once per element, at the first pair that draws it,
        into `inside`, which grows here to the elements the pairs draw; a
        pair verified before pays only for its decider."""
        related, carrier, pos, inside = rel.decider, rel.carrier, self.pos, self.inside
        kept = min(self.verified, len(xs))
        k = _first_false(map(related, itertools.islice(xs, kept), ys), kept)
        if k < kept:
            return k + 1, "pair-generator-decider", (xs[k], ys[k])
        inside += bytes([_UNASKED]) * (self.place(xs, ys, len(xs)) - len(inside))

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
        placed yet; return how many elements those pairs draw.  An element
        equal, as a dict key, to one placed before takes its position; an
        unhashable one is an element of its own at each slot it fills.  What
        a check asks of the elements, `verify` and `view` append."""
        index, elems, pos, new = self.index, self.elems, self.pos, self.new
        for k in range(len(new), n):
            before = len(elems)
            for x in (xs[k], ys[k]):
                try:
                    i = index.setdefault(x, len(elems))
                except TypeError:
                    i = len(elems)
                if i == len(elems):
                    elems.append(x)
                pos.append(i)
            new.append(len(elems) - before)
        return _drawn(new, n)

    def view(self, rel: EquivRelation, xs: Sequence, ys: Sequence):
        """The sample the pairs of `xs` and `ys` draw, as the checks read it:
        the distinct elements then the late forms they need, in first-seen
        order; with a canonicalizer, a function giving an iterator over
        those elements' forms (a late form's own form is asked when an
        iterator first reaches it) and the agreement byte of each pair, else
        None for both.  A drawn element that is unhashable raises
        `TypeError` first; then each new element is canonicalized once, in
        first-seen order, before any new pair's forms are compared, and a
        `StopIteration` that ends either pass early raises `RuntimeError`."""
        drawn = self.place(xs, ys, len(xs))
        elems = self.elems[:drawn]
        if len(self.index) < len(self.elems):
            hash(tuple(elems))
        canon = rel.canonicalize
        if canon is None:
            return elems, None, None
        index, pos, forms, agree = self.index, self.pos, self.forms, self.agree
        forms += map(self._held, map(canon, elems[len(forms):]), range(len(forms), drawn))
        k, n = 2 * len(agree), 2 * len(xs)
        if len(forms) == drawn:
            agree.extend(map(bool, map(operator.eq, map(forms.__getitem__, pos[k:n:2]),
                                       map(forms.__getitem__, pos[k + 1:n:2]))))
        if len(agree) < len(xs):  # a StopIteration ended a pass (`_first_false`)
            raise RuntimeError(_STOPPED)
        late = [entry for entry in self.late.values()
                if entry[1] < drawn and index.get(entry[0], drawn) >= drawn]
        held, own = forms[:drawn], partial(self._own_form, canon)
        return (elems + [entry[0] for entry in late],
                lambda: itertools.chain(held, map(own, late)), agree[:len(xs)])

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
        if sample.chains[0] != budget:
            sample.chains = (budget, *_chains(sample.pos, n, budget))
        _, ks, ms = sample.chains
    checked = n
    for ran, violation in _law_blocks(rel.decider, xs, ys, budget, elems, forms, agree, ks, ms):
        checked += ran
        if violation is not None:
            break
    return checked, violation


def _law_blocks(related: Callable, xs: Sequence, ys: Sequence, budget: int, elems: list,
                forms, agree, ks: array, ms: array):
    """The law blocks `check_equivalence` runs once the generator's contract
    holds on the pairs of `xs` and `ys`, in order, as `_block`s; one that
    fails is the last.  `elems`, `forms` and `agree` are the sample's view
    of the pairs (`Sample.view`); transitivity case t chains pair ks[t]
    with pair ms[t].  Each block but the cube is one verdict stream of the
    decider, asked in case order up to its first false verdict."""
    yield _block(_first_false(map(related, elems, elems), len(elems)), len(elems), "reflexivity",
                 lambda i: (elems[i], elems[i]))
    yield _block(_first_false(map(related, ys, xs), len(xs)), len(xs), "symmetry",
                 lambda k: (xs[k], ys[k]))

    # Chain generated pairs through shared midpoints for transitivity: each
    # pair (x, y), in order, with each pair (y, z).
    chained = map(related, map(xs.__getitem__, ks), map(ys.__getitem__, ms))
    yield _block(_first_false(chained, len(ks)), len(ks), "transitivity",
                 lambda t: (xs[ks[t]], ys[ks[t]], ys[ms[t]]))

    # Cross-sample a bounded cube of elements for laws the generator's own
    # pairs cannot expose (e.g. unrelated elements turning out related).
    yield _cube_cases(related, elems[: round(budget ** (1 / 3)) + 2], budget)

    if forms is not None:
        yield _block(_first_false(map(related, elems, forms()), len(elems)), len(elems),
                     "canonical-related",
                     lambda i: (elems[i], next(itertools.islice(forms(), i, None))))
        yield _block(agree.find(0), len(xs), "canonical-agreement", lambda k: (xs[k], ys[k]))


def _block(failed: int, size: int, law: str, witness: Callable) -> tuple[int, tuple | None]:
    """A block of `size` cases that first fails at `failed` (-1 or `size`
    for none): how many ran, and the law with that case's witness, or None."""
    return (failed + 1, (law, witness(failed))) if 0 <= failed < size else (size, None)


def _chains(pos: array, n: int, limit: int) -> tuple[array, array]:
    """Columns k and m of the first `limit` of these cases, read lazily in C:
    each of the first `n` pairs k of `pos` (`Sample.pos`), in order, with
    each of them m, in order, whose left element is pair k's right."""
    starts = collections.defaultdict(partial(array, "I"))  # the pairs m whose left is each element
    lefts, rights = (partial(itertools.islice, pos, side, 2 * n, 2) for side in (0, 1))
    collections.deque(map(array.append, map(starts.__getitem__, lefts()), range(n)), maxlen=0)
    groups, sizes = itertools.tee(filter(None, map(starts.get, rights())))  # each k's pairs m
    ks = map(itertools.repeat, itertools.compress(range(n), map(starts.__contains__, rights())),
             map(len, sizes))
    return (array("I", itertools.islice(itertools.chain.from_iterable(ks), limit)),
            array("I", itertools.islice(itertools.chain.from_iterable(groups), limit)))


def _cube_cases(related: Callable, cube: list, budget: int) -> tuple[int, tuple | None]:
    """The cube's block of `_law_blocks`, in the reference order: symmetry
    on the first `budget` pairs of `cube` elements, then transitivity on
    the first `budget` triples, of which only those whose premises hold
    count.  Each cell related(a, b) is asked once, when a symmetry case
    first needs it, and kept as bit b of rows[a] when it holds: case (a, b)
    with b < a finds related(b, a) asked in row b, and its own cell too
    where that held.  Triple t (a, b, x) reads cells (a, b), (b, x) and
    (a, x), none past pair t in row-major order, so the symmetry cases
    have asked every cell the transitivity cases read, and each
    transitivity row is read off `rows` as a bitmask."""
    c = len(cube)
    rows, checked = [0] * c, min(c * c, budget)
    for a, x in enumerate(cube[:-(-checked // c)]):
        for b, y in enumerate(cube[:checked - a * c]):
            if b < a:
                if not rows[b] >> a & 1 and related(x, y):
                    return a * c + b + 1, ("symmetry", (x, y))
            elif related(x, y):
                rows[a] |= 1 << b
                if b > a and not related(y, x):
                    return a * c + b + 1, ("symmetry", (x, y))
                rows[b] |= 1 << a
    for ab in range(min(c * c, -(-budget // c))):
        a, b = divmod(ab, c)
        if rows[a] >> b & 1:
            held = rows[b] & (1 << min(c, budget - ab * c)) - 1  # the premises b ~ x
            bad = held & ~rows[a]
            if bad:
                x = (bad & -bad).bit_length() - 1
                checked += bin(held & (1 << x) - 1).count("1") + 1
                return checked, ("transitivity", (cube[a], cube[b], cube[x]))
            checked += bin(held).count("1")
    return checked, None


def respects(f: Callable, eq: Callable, relations: Sequence[EquivRelation], budget: int):
    """`check_respects`' cases: how many ran, and the first counterexample,
    or None."""
    n = len(relations)
    side = budget if n <= 1 else int(budget ** (1 / n)) + 1
    columns = [_columns(rel, side) for rel in relations]
    if n == 0:
        checked, failed = 1, None if eq(f(), f()) else 0
    else:
        sources = list(map(sample_of, relations))
        for sample, c in zip(sources, columns):
            with sample.lock:
                sample.place(*c)
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
    table would: one that fails before the raising one still refutes.  A
    fill that `f` cut short with `StopIteration` raises `RuntimeError`, so
    its cases are asked one by one too."""
    checked = 0
    for size, fill, lefts, rights, cases in segments:
        try:
            fill()
            raised = None
        except Exception as exc:
            raised = exc
        if raised is not None:
            failed = _first_false((eq(f(*xs), f(*ys)) for xs, ys in cases()), size)
            if failed == size:
                raise raised
        else:
            failed = _first_false(map(eq, lefts, rights), size)
        if failed < size:
            return checked + failed + 1, checked + failed
        checked += size
    return checked, None


def _first_false(verdicts: Iterable, size: int) -> int:
    """The position of the first false verdict of the `size` verdicts of
    `verdicts`, asked in order up to it, or `size` when none is false: one
    C-level pass, through which whatever a verdict raises propagates.  A
    `StopIteration` raised inside the pass would end it early, as if the
    verdicts had run out; that raises `RuntimeError`, as in a generator."""
    end = iter((True,))
    failed = operator.indexOf(itertools.chain(map(operator.not_, verdicts), end), True)
    if failed < size and not operator.length_hint(end):
        raise RuntimeError(_STOPPED)
    return failed


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
    product of the per-argument `columns` (`_columns`), over the `Sample`s
    in `sources`, where their pairs are placed.

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
    *lead, last = sources
    elems, pos, new = last.elems, last.pos, last.new
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
        itertools.product(*(s.pos[0:2 * c[2]:2] for s, c in zip(lead, columns))),
        itertools.product(*(s.pos[1:2 * c[2]:2] for s, c in zip(lead, columns))),
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
                args = [s.elems[p] for s, p in zip(lead, t)]
                work.append((table, args, items, prefixes[side] if w == width else gather))
            reads.append(map(table.__getitem__, gather))
        yield (w, partial(_fill_rows, f, work), reads[0], reads[1],
               partial(_cases, lx, xs, rx, ys, 0, w))


def _fill_rows(f: Callable, work: list) -> None:
    """Image each (table, leading arguments, items, wanted) of `work`:
    f(*leading arguments, items[i]) at each index i wanted that the table
    lacks, where wanted is a prefix's length or a list of indices.  Should
    `f` raise `StopIteration`, which ends a C-level pass as if its items had
    run out, the table lacks an image: that raises `RuntimeError`."""
    for table, args, items, wanted in work:
        reps = map(itertools.repeat, args)
        if isinstance(wanted, int):
            table += map(f, *reps, itertools.islice(items, len(table), wanted))
            short = len(table) < wanted
        else:
            need = [i for i in dict.fromkeys(wanted) if i >= len(table) or table[i] is _HOLE]
            table += itertools.repeat(_HOLE, max(need, default=-1) + 1 - len(table))
            images = map(f, *reps, map(items.__getitem__, need))
            collections.deque(map(table.__setitem__, need, images), maxlen=0)
            short = need and table[need[-1]] is _HOLE
        if short:
            raise RuntimeError(_STOPPED)


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
    if not elems:
        return 0, None, None

    k = len(elems)
    rows: list = [[] for _ in elems]  # rows[i][j] is f(elems[i], elems[j]); each a prefix
    checked, failed = _scan(f, eq, _probe_segments(f, rows, elems, min(budget // 2, k * k)))
    if failed is not None:
        return checked, (elems[failed // k], elems[failed % k]), None

    # The first-argument cases: pairs (x, y) against each element c as the
    # pair (c, c), over the probe's rows, which are their tables.
    diagonal = Sample()
    diagonal.place(elems, elems, k)
    tables = {(i,): row for i, row in enumerate(rows)}
    firsts, failed = _scan(f, eq, _product_segments(
        f, [sample, diagonal], [(xs, ys, n), (elems, elems, k)], budget - checked, tables))
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
    below row i holds its first i cells.  Raises `RuntimeError` where, as
    in `_fill_rows`, a `StopIteration` left a cell out."""
    a = elems[i]
    _fill_rows(f, [(rows[i], (a,), elems, w)])
    collections.deque(map(list.append, rows[i + 1:w], map(f, elems[i + 1:w], itertools.repeat(a))),
                      maxlen=0)
    if len(rows[w - 1]) <= i:
        raise RuntimeError(_STOPPED)
