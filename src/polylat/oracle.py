"""Brute-force geometric enumeration, straight from the definitions.

A column-convex polyomino is stored as its column intervals (bottom,
height), left to right; a plateau polycube as its strata (y0, h, z0, d).
Both are translation-normalized: the first column bottom (resp. the first
stratum's y0 and z0) is 0. Consecutive columns must share an edge
(overlapping intervals); consecutive strata must overlap in y and in z.
That constructive representation is unique per object, so enumeration is
plain depth-first generation over heights/depths and offsets, pruned on
the remaining size budget, with no canonical-form hashing. Both classes
are frozen, slotted dataclasses: an object holds its tuple and no
__dict__, since the bijection suite builds thousands of them.

A column is a box with a = 1 axis, a stratum one with a = 2, and one set
of rules takes a: _sizes leaves each later slice one unit per axis and
the last one the rest, _extents splits a size into extents in
lexicographic order on demand, and _first_slices puts those at the
origin. The DFS goes by size, then extents, then offsets; only the offset
loops are written per a (_next_columns, _next_strata). The iter_*
generators (and so the bijection suite) build and yield every object
literally, by one DFS (_iter_slices). The enum_* counts walk the same
tree without yielding (_count_slices): they place every column/stratum
but the last two at every offset, and a tail rule counts the last two. For
cc and plateau the tail (_columns_tail, _strata_tail) counts them in O(1)
by closed forms of their per-offset sums. It stops at two: summing the
earlier slices by extents alone would be the transfer-matrix recurrence,
a formula route of its own. A tail depends on the slice above only through
its extents, and the plateau count keeps _strata_tail's per (extents,
strata left, area left) for the call (_per_shape); the column tail is
cheaper to evaluate than to look up.

Directedness is decided by one literal reachability search over the whole
object (_is_directed): East/North/Ahead unit steps from the minimal
corner of the first stratum, tested on the strata's intervals, no cell
set built. A column-convex polyomino is searched as the depth-1 plateau
polycube with strata (b, h, 0, 1): its cells at z = 0 are the
polyomino's, and no Ahead step lands in it, so the search takes the 2D
North/East steps. is_directed(), and so iter_dcc and iter_dplateau, run
that search. A directed family is a sub-family of its undirected one, so
its walks, the counts and the dumps, keep the candidates of the same
offset loop that one reach rule (_reach) admits. The rule runs the search
one slice at a time: no step decreases x, so each later slice is searched
from the East step of the previous slice's cells, and a prefix is dropped
once one of its slices is not fully reached. A first slice, a box, is not
searched: North and Ahead steps from the root cover it. Steps do not
depend on where a slice sits, and a verdict depends only on the slice's
extents and its seed box, so one step map at the origin and one verdict
byte per seed box are kept per extents for the call (none at width 1):
each (extents, seed box) is searched once per call. A seed box depends
only on the two slices' extents and the offset, so the rule answers per
pair of extents with the verdict bytes of the loop's candidates, in its
order. _directed(a, loop) chains them in the order of the size and
extents rules, which is the loop's, and keeps each candidate whose byte
is 2 (reached). Below a fully reached slice the ways to end depend only
on its extents and the size left, so the directed counts also end with a
tail for the last two slices, sums of reached bytes kept per shape for
the call. So a number of axes needs one offset loop for both families.

All of a family's rules sit in one entry of _RULES: its number of axes a,
which picks its first slices, and a builder of the (successors, tail)
pair its walks take (_directed(a, loop) for dcc and dplateau). The builder
makes a fresh pair per call, so the memos of _reach, _directed and
_per_shape live for that call only. The single counts (_count), the
per-width counts (count_sizes, one walk at the largest of many sizes) and
the one tuple walk (_tuples) all read that entry; iter_cc, iter_plateau
and dump_objects (--dump, which writes the walk's tuples without building
objects) read that walk. Every count runs in the calling process.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, compress, product
from math import prod
from operator import not_
from typing import Iterable, Iterator

Column = tuple[int, int]
Stratum = tuple[int, int, int, int]


@dataclass(frozen=True, slots=True)
class ColumnConvexPoly:
    """Column-convex polyomino as (bottom, height) per column."""

    columns: tuple[Column, ...]

    def __post_init__(self):
        cols = self.columns
        if not cols:
            raise ValueError("a polyomino needs at least one column")
        if cols[0][0] != 0:
            raise ValueError("not normalized: first column bottom must be 0")
        for b, h in cols:
            if h < 1:
                raise ValueError(f"column heights must be >= 1, got {h}")
        for (b1, h1), (b2, h2) in zip(cols, cols[1:]):
            if not (b1 < b2 + h2 and b2 < b1 + h1):
                raise ValueError(f"columns ({b1},{h1}) and ({b2},{h2}) do not touch")

    @property
    def width(self) -> int:
        return len(self.columns)

    @property
    def area(self) -> int:
        return sum(h for _, h in self.columns)

    def cells(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (x, y) for x, (b, h) in enumerate(self.columns) for y in range(b, b + h)
        )

    def is_directed(self) -> bool:
        """Whether the search of _is_directed, run on this polyomino lifted
        to depth-1 strata, reaches every cell by North and East steps."""
        return _is_directed(tuple((b, h, 0, 1) for b, h in self.columns))


@dataclass(frozen=True, slots=True)
class PlateauPolycube:
    """Plateau polycube as (y0, h, z0, d) per stratum."""

    plateaus: tuple[Stratum, ...]

    def __post_init__(self):
        plats = self.plateaus
        if not plats:
            raise ValueError("a polycube needs at least one stratum")
        if plats[0][0] != 0 or plats[0][2] != 0:
            raise ValueError("not normalized: first stratum must start at y0 = z0 = 0")
        for y0, h, z0, d in plats:
            if h < 1 or d < 1:
                raise ValueError(f"stratum extents must be >= 1, got h={h}, d={d}")
        for (y1, h1, z1, d1), (y2, h2, z2, d2) in zip(plats, plats[1:]):
            if not (y1 < y2 + h2 and y2 < y1 + h1 and z1 < z2 + d2 and z2 < z1 + d1):
                raise ValueError("consecutive strata must overlap in y and in z")

    @property
    def width(self) -> int:
        return len(self.plateaus)

    @property
    def lateral_area(self) -> int:
        return sum(h + d for _, h, _, d in self.plateaus)

    def cells(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(
            (x, y, z)
            for x, (y0, h, z0, d) in enumerate(self.plateaus)
            for y in range(y0, y0 + h)
            for z in range(z0, z0 + d)
        )

    def is_directed(self) -> bool:
        return _is_directed(self.plateaus)


def _is_directed(plats: tuple[Stratum, ...]) -> bool:
    """Reachability of all cells from the minimal corner (0, y0, z0) of the
    first stratum using only East, North and Ahead unit steps. No other
    root can do better: no step decreases y or z, and the corner reaches
    every cell of the first stratum, hence everything any of them reaches.
    Steps are tested on the strata's intervals, no cell set is built: all
    Σ h·d cells are reached when as many are seen."""
    seen = set()
    frontier = [(0, plats[0][0], plats[0][2])]
    east = plats[1:] + ((0, 0, 0, 0),)  # nothing east of the last stratum
    while frontier:
        x, y, z = cell = frontier.pop()
        if cell in seen:
            continue
        seen.add(cell)
        y0, h, z0, d = plats[x]
        if y + 1 < y0 + h:
            frontier.append((x, y + 1, z))
        if z + 1 < z0 + d:
            frontier.append((x, y, z + 1))
        ey, eh, ez, ed = east[x]
        if ey <= y < ey + eh and ez <= z < ez + ed:
            frontier.append((x + 1, y, z))
    return len(seen) == sum(h * d for _, h, _, d in plats)


def _sizes(a: int, slices_left: int, size_left: int) -> range:
    """The sizes a slice with a axes can take when slices_left slices, this
    one included, share size_left: each later slice needs one unit per axis,
    and the last slice takes the rest (none when the rest is below a)."""
    rest = size_left - a * (slices_left - 1)
    return range(rest if slices_left == 1 and rest >= a else a, rest + 1)


def _extents(a: int, size: int) -> Iterable[tuple[int, ...]]:
    """The extents of a slice with a axes and size `size`, generated on
    demand: the tuples of a positive integers summing to size, in
    lexicographic order. (h,) for a column, (h, d) by h for a stratum."""
    if a == 1:
        return ((size,),)
    return ((e, *rest) for e in range(1, size - a + 2) for rest in _extents(a - 1, size - e))


def _at_origin(e: tuple) -> tuple:
    """The slice of extents e at the origin: offset 0 on every axis."""
    return tuple(v for ext in e for v in (0, ext))


def _first_slices(a: int, k: int, size: int) -> Iterator[tuple]:
    """The normalized first slices of the width-k tuples of slices with a
    axes and total size `size`, in DFS order: the extents of each size of
    _sizes, at the origin. Empty when size < a * k. The width is checked at
    the call, the slices are generated on demand."""
    if k < 1:
        raise ValueError(f"width must be >= 1, got {k}")
    return (_at_origin(e) for s in _sizes(a, k, size) for e in _extents(a, s))


# The successors of the cc and plateau walks, and the candidates that the
# dcc and dplateau walks filter: the extents of each size of _sizes in
# _extents order, each at every overlap-feasible offset. They are
# written per number of axes: one offset loop for any a, a product of
# per-axis offset ranges, made enum_cc(5, 16) 4.1x and enum_plateau(4, 15)
# 2.8x slower, and reading _extents(2, s) instead of the loop over h made
# enum_plateau(4, 15) 1.15x slower.
def _next_columns(prev: Column, cols_left: int, area_left: int) -> Iterator[tuple[Column, int]]:
    """The columns (b, h) that can follow prev when cols_left columns, this
    one included, share area_left cells, each with its area h."""
    pb, ph = prev
    for h in _sizes(1, cols_left, area_left):
        for b in range(pb - h + 1, pb + ph):
            yield (b, h), h


def _next_strata(prev: Stratum, strata_left: int, area_left: int) -> Iterator[tuple[Stratum, int]]:
    """The strata (y, h, z, d) that can follow prev when strata_left strata,
    this one included, share lateral area area_left, each with its lateral
    area h + d."""
    py, ph, pz, pd = prev
    for s in _sizes(2, strata_left, area_left):
        for h in range(1, s):
            d = s - h
            for y in range(py - h + 1, py + ph):
                for z in range(pz - d + 1, pz + pd):
                    yield (y, h, z, d), s


def _iter_slices(firsts: Iterable, successors, k: int, size: int) -> Iterator[tuple]:
    """All slice tuples of width k and total size `size` that start with one
    of firsts, one first slice after the other, by DFS over
    successors(prev, slices_left, size_left). A slice's size is the sum of
    its extents, its odd-indexed entries."""
    current: list = []

    def rec(slices_left: int, size_left: int) -> Iterator[tuple]:
        if slices_left == 0:
            yield tuple(current)
            return
        for nxt, used in successors(current[-1], slices_left, size_left):
            current.append(nxt)
            yield from rec(slices_left - 1, size_left - used)
            current.pop()

    for first in firsts:
        current.append(first)
        yield from rec(k - 1, size - sum(first[1::2]))
        current.pop()


def _count_slices(firsts: Iterable, successors, tail, k: int, size: int) -> int:
    """How many of the width-k tuples of total size `size` that the DFS of
    _iter_slices over successors generates start with one of firsts, by the
    same DFS counting instead of yielding: successors places every slice but
    the last two at each of its offsets, and tail(prev, slices_left,
    size_left) counts the ways to end it with 1 or 2 more."""

    def rec(prev: tuple, slices_left: int, size_left: int) -> int:
        if slices_left == 0:
            return 1
        if slices_left <= 2:
            return tail(prev, slices_left, size_left)
        step = tail if slices_left == 3 else rec  # one frame less per placement
        total = 0
        for nxt, used in successors(prev, slices_left, size_left):
            total += step(nxt, slices_left - 1, size_left - used)
        return total

    return sum(rec(first, k - 1, size - sum(first[1::2])) for first in firsts)


def _columns_tail(prev: Column, cols_left: int, area_left: int) -> int:
    """The ways to end a column tuple with cols_left (1 or 2) columns of area
    area_left >= cols_left under prev = (pb, ph), in closed form: a column of
    height h under it has ph + h - 1 overlap-feasible bottoms, whatever pb
    is, so two take Σ_{1<=h<area_left} (ph + h - 1) * (area_left - 1)."""
    ph, a = prev[1], area_left
    if cols_left == 1:
        return ph + a - 1
    return (a - 1) ** 2 * (a + 2 * ph - 2) // 2


def _strata_tail(prev: Stratum, strata_left: int, area_left: int) -> int:
    """The ways to end a stratum tuple with strata_left (1 or 2) strata of
    lateral area area_left >= 2 * strata_left under prev = (py, ph, pz, pd),
    in closed form: a stratum (h, d) under it has (ph + h - 1) * (pd + d - 1)
    offsets, whatever py and pz are, so one takes last(ph, pd, area_left) =
    Σ_{1<=h<area_left} (ph + h - 1) * (pd + area_left - h - 1) and two take
    Σ_{2<=s<area_left-1, 1<=h<s} (ph + h - 1) * (pd + s - h - 1) * last(h, s - h, area_left - s)."""
    _, ph, _, pd = prev
    a, A, B = area_left, ph - 1, pd - 1
    if strata_left == 1:
        return (a - 1) * (6 * A * B + 3 * (A + B) * a + a * (a + 1)) // 6
    q = a * a - 4 * a + 5
    return ((a - 1) * (a - 2) * (a - 3)
            * (56 * A * B * q + 14 * (A + B) * a * q + a * (3 * a ** 3 - 10 * a ** 2 + 5 * a + 18)) // 1680)


def _per_shape(tail):
    """tail(prev, slices_left, size_left), kept for the call per (prev
    extents, slices left, size left): the plateau tail depends on prev only
    through its extents, since every successor is placed relative to prev's
    offsets."""
    ends: dict[tuple, int] = {}  # (prev extents, slices left, size left) -> count

    def tail_per_shape(prev: tuple, slices_left: int, size_left: int) -> int:
        key = (prev[1::2], slices_left, size_left)
        count = ends.get(key)
        if count is None:
            count = ends[key] = tail(prev, slices_left, size_left)
        return count

    return tail_per_shape


def _slice_steps(s: tuple) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The cells of one slice without their x, (y,) per column (b, h) and
    (y, z) per stratum (y0, h, z0, d), each with the cells of the slice one
    unit step up an axis from it: North in 2D, North or Ahead in 3D. Each
    (offset, extent) pair of the slice spans one axis."""
    cells = set(product(*(range(lo, lo + ext) for lo, ext in zip(s[::2], s[1::2]))))
    return {
        cell: [
            nxt
            for nxt in (cell[:axis] + (cell[axis] + 1,) + cell[axis + 1:] for axis in range(len(cell)))
            if nxt in cells
        ]
        for cell in cells
    }


def _slice_reached(steps: dict, seeds) -> bool:
    """Whether the unit steps of steps, from the seeds, reach every cell of
    the slice."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        for nxt in steps[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(steps)


def _reach():
    """The reach rule of the directed families' search, staged slice by
    slice: a function verdicts(pe, e) of the extents pe of a slice and e of
    its successor, kept for the call per pair. It gives one verdict byte per
    successor of extents e, in _next_columns/_next_strata order: 2 when the
    successor is fully reached from the East step of the slice's cells, 1
    when not. No East, North or Ahead step decreases x, so the cells of a
    slice can be reached only from the slices to its left. Steps do not
    depend on where a slice sits, so one map per extents is built, at the
    origin, once per call. A successor at offset r from the slice on an
    axis, 1 - e <= r < pe, is searched from the box where the two overlap,
    [max(-r, 0), min(pe - r, e)) on each axis from its origin. The verdict
    depends on nothing else, so beside each map a bytearray keeps one
    verdict byte per seed box: a seed box is never empty, so 0 <= lo < hi <=
    e, and the axis index tri[hi] + lo takes e * (e + 1) // 2 slots (tri
    holds the triangular numbers); an axis's index depends on (pe, e) and r
    only. A byte is 0 not searched yet, 1 not reached, 2 reached. Each
    (extents, seed box) is searched once per call, and every later offset
    reads its byte."""
    # the maps stay: stepping by extent arithmetic instead made the counts 1.2-2.1x slower
    known: dict[tuple, tuple[dict, bytearray]] = {}  # extents -> (step map at the origin, verdicts)
    tri = [0]  # n -> n * (n - 1) // 2: the boxes [lo, hi) with hi < n

    @cache
    def axis(pe: int, e: int) -> list[int]:
        # the index of the seed box at each offset r on one axis
        return [tri[pe - r if pe - r < e else e] + (-r if r < 0 else 0) for r in range(1 - e, pe)]

    @cache
    def verdicts(pe: tuple, e: tuple) -> bytes:
        known_here = known.get(e)
        if known_here is None:
            tri.extend(n * (n - 1) // 2 for n in range(len(tri), max(e) + 2))
            known_here = known[e] = (_slice_steps(_at_origin(e)),
                                     bytearray(prod(tri[ext + 1] for ext in e)))
        steps, table = known_here
        at = axis(pe[0], e[0])
        for p, x in zip(pe[1:], e[1:]):
            at = [a * tri[x + 1] + i for a in at for i in axis(p, x)]
        found = bytes(map(table.__getitem__, at))
        if 0 in found:
            for a in set(compress(at, map(not_, found))):
                box, rest = [], a
                for x in e[::-1]:  # each axis index tri[hi] + lo back to [lo, hi)
                    rest, i = divmod(rest, tri[x + 1])
                    hi = bisect_right(tri, i) - 1
                    box.append(range(i - tri[hi], hi))
                table[a] = 2 if _slice_reached(steps, product(*box[::-1])) else 1
            found = bytes(map(table.__getitem__, at))
        return found

    return verdicts


def _directed(a: int, loop):
    """The (successors, tail) pair of the count of a directed family whose
    slices have a axes, from a fresh _reach. successors keeps the candidates
    of loop (_next_columns or _next_strata) whose verdict byte is 2: loop
    goes by the extents of each size in _sizes/_extents order, so their
    verdicts, chained in that order, flag its candidates. The tail places
    nothing: whether a successor is reached depends on its offset from its
    slice, not on where that slice sits, so the ways to end below a fully
    reached slice depend only on its extents and the size left. One slice
    takes the 2s among the verdicts of the extents of the size left, two
    take each such count times that one-slice tail; both, and the extents
    of each size, are kept for the call per (extents, slices left, size
    left). Like _columns_tail and _strata_tail the tail stops at two slices."""
    verdicts = _reach()
    extents = cache(lambda s: list(_extents(a, s)))

    def successors(prev: tuple, slices_left: int, size_left: int) -> Iterator[tuple[tuple, int]]:
        pe = prev[1::2]
        flags = chain.from_iterable(verdicts(pe, e) for s in _sizes(a, slices_left, size_left) for e in extents(s))
        return compress(loop(prev, slices_left, size_left), map((2).__eq__, flags))

    @cache
    def ends(pe: tuple, slices_left: int, size_left: int) -> int:
        if slices_left == 1:
            return sum(verdicts(pe, e).count(2) for e in extents(size_left))
        return sum(verdicts(pe, e).count(2) * ends(e, 1, size_left - s)
                   for s in _sizes(a, 2, size_left) for e in extents(s))

    return successors, lambda prev, slices_left, size_left: ends(prev[1::2], slices_left, size_left)


# family -> (the number of axes a of its slices, 1 for columns and 2 for
# strata, which counting.SIZE_UNIT reads as the least size of a slice, and
# a builder of the (successors, tail) pair its count walks, for a directed
# family filtering the undirected one's offset loop). A
# builder returns a fresh pair on each call, so the memos in it last one
# call. The plateau tail is kept per shape: the stratum above the last two
# sits at many offsets with the same extents.
_RULES = {
    "cc": (1, lambda: (_next_columns, _columns_tail)),
    "dcc": (1, partial(_directed, 1, _next_columns)),
    "plateau": (2, lambda: (_next_strata, _per_shape(_strata_tail))),
    "dplateau": (2, partial(_directed, 2, _next_strata)),
}


def _tuples(family: str, k: int, size: int) -> Iterator[tuple]:
    """The family's slice tuples at (k, size) in DFS order, by the first
    slices and successors of its _RULES entry."""
    a, rules = _RULES[family]
    return _iter_slices(_first_slices(a, k, size), rules()[0], k, size)


def iter_cc(k: int, n: int) -> Iterator[ColumnConvexPoly]:
    """Every normalized column-convex polyomino with k columns and area n."""
    yield from map(ColumnConvexPoly, _tuples("cc", k, n))


def iter_dcc(k: int, n: int) -> Iterator[ColumnConvexPoly]:
    """The polyominoes of iter_cc(k, n) whose is_directed() is true."""
    return (p for p in iter_cc(k, n) if p.is_directed())


def iter_plateau(k: int, m: int) -> Iterator[PlateauPolycube]:
    """Every normalized plateau polycube with k strata and lateral area m."""
    yield from map(PlateauPolycube, _tuples("plateau", k, m))


def iter_dplateau(k: int, m: int) -> Iterator[PlateauPolycube]:
    """The polycubes of iter_plateau(k, m) whose is_directed() is true."""
    return (p for p in iter_plateau(k, m) if p.is_directed())


def _count(family: str, k: int, size: int) -> int:
    """The family's count at (k, size): _count_slices over its first slices
    and a fresh (successors, tail) pair of its _RULES entry. It applies the
    tail at each prefix instead of going through count_sizes, whose records
    cost more than a closed-form tail: count_sizes at one size was 1.7x
    slower on cc (5, 16) and 1.24x on plateau (4, 15)."""
    a, rules = _RULES[family]
    return _count_slices(_first_slices(a, k, size), *rules(), k, size)


def count_sizes(family: str, k: int, sizes: Iterable[int]) -> dict[int, int]:
    """The family's count at width k and each of sizes, by one walk: the DFS
    of _count_slices runs once at the largest size with a tail that records
    each (extents above the last two, slices left, size left) and counts
    nothing, then the family's tail counts each record once per size. The
    DFS prunes a slice only on the size its later slices need, one unit per
    extent each, so the walk at the largest size places every prefix of a
    smaller one, and a record ends objects of a size exactly when the size
    left covers its slices. Width 1 has no tail: its first slices are
    counted at each size."""
    if family not in _RULES:
        raise ValueError(f"unknown family {family!r}")
    a, rules = _RULES[family]
    if k == 1:
        return {size: sum(1 for _ in _first_slices(a, 1, size)) for size in sizes}
    counts = dict.fromkeys(sizes, 0)
    top = max(counts, default=0)
    successors, tail = rules()
    records: dict[tuple, int] = defaultdict(int)  # (extents, slices left, size left at top) -> prefixes

    def record(prev: tuple, slices_left: int, size_left: int) -> int:
        records[prev[1::2], slices_left, size_left] += 1
        return 0

    _count_slices(_first_slices(a, k, top), successors, record, k, top)
    for (extents, slices_left, left), prefixes in records.items():
        prev = _at_origin(extents)
        for size in counts:
            size_left = size - top + left
            if size_left >= slices_left * len(extents):
                counts[size] += prefixes * tail(prev, slices_left, size_left)
    return counts


def enum_cc(k: int, n: int) -> int:
    """Count of column-convex polyominoes with k columns and area n, by
    exhaustive search with the last two columns counted by the closed form
    of _columns_tail. 0 when n < k."""
    return _count("cc", k, n)


def enum_dcc(k: int, n: int) -> int:
    """Count of directed column-convex polyominoes with k columns and
    area n: the column tuples of iter_cc whose every cell the slice-staged
    search reaches. 0 when n < k."""
    return _count("dcc", k, n)


def enum_plateau(k: int, m: int) -> int:
    """Count of plateau polycubes with k strata and lateral area m, by
    exhaustive search with the last two strata counted by the closed forms
    of _strata_tail. 0 when m < 2k."""
    return _count("plateau", k, m)


def enum_dplateau(k: int, m: int) -> int:
    """Count of directed plateau polycubes with k strata and lateral area m:
    the stratum tuples of iter_plateau whose every cell the slice-staged
    search reaches. 0 when m < 2k."""
    return _count("dplateau", k, m)


def project(p: PlateauPolycube) -> tuple[ColumnConvexPoly, ColumnConvexPoly]:
    """The two column-convex projections of a plateau polycube: onto the
    (i,j) plane (columns (y0, h)) and onto the (i,k) plane (columns
    (z0, d)). Their areas sum to the lateral area."""
    heights = tuple((y0, h) for y0, h, _, _ in p.plateaus)
    depths = tuple((z0, d) for _, _, z0, d in p.plateaus)
    return ColumnConvexPoly(heights), ColumnConvexPoly(depths)


def unproject(a: ColumnConvexPoly, b: ColumnConvexPoly) -> PlateauPolycube:
    """The unique plateau polycube whose projections are (a, b); the
    inverse of project. The widths must match."""
    if a.width != b.width:
        raise ValueError(f"widths differ: {a.width} != {b.width}")
    plats = tuple(
        (ab, ah, bb, bh) for (ab, ah), (bb, bh) in zip(a.columns, b.columns)
    )
    return PlateauPolycube(plats)


def is_face_connected(cells) -> bool:
    """6-neighbour connectivity of a set of integer voxel triples."""
    return _drain_connected(set(cells))


def _drain_connected(todo: set) -> bool:
    """Whether the voxel set todo is nonempty and face-connected. Empties
    todo: the search takes each cell out as it reaches it."""
    if not todo:
        return False
    frontier = [todo.pop()]
    while frontier:
        x, y, z = frontier.pop()
        for nxt in (
            (x + 1, y, z), (x - 1, y, z),
            (x, y + 1, z), (x, y - 1, z),
            (x, y, z + 1), (x, y, z - 1),
        ):
            if nxt in todo:
                todo.remove(nxt)
                frontier.append(nxt)
    return not todo


def lateral_area_voxels(cells) -> int:
    """Lateral area of a voxel set: the number of distinct (x, y) pairs plus
    the number of distinct (x, z) pairs over its cells (the areas of its two
    axis projections). The set must be nonempty and face-connected."""
    cells = set(cells)
    if not cells:
        raise ValueError("voxel set is empty")
    lateral = len({(x, y) for x, y, _ in cells}) + len({(x, z) for x, _, z in cells})
    if not _drain_connected(cells):
        raise ValueError("voxel set is not face-connected")
    return lateral


# Plain-text object dump: one object per line. A column-convex polyomino is
# its "(bottom,height)" pairs, a plateau polycube its "(y0,h,z0,d)" tuples,
# space-separated in left-to-right order.
_DUMP_TUPLE = re.compile(r"\((-?[0-9]+(?:,-?[0-9]+)*)\)")


def _slice_text(s: tuple) -> str:
    return f"({','.join(map(str, s))})"


def format_cc(p: ColumnConvexPoly) -> str:
    return " ".join(map(_slice_text, p.columns))


def format_plateau(p: PlateauPolycube) -> str:
    return " ".join(map(_slice_text, p.plateaus))


def _parse_tuples(line: str, arity: int, build):
    """build() of the arity-integer tuples on one dump line. A defect, also
    one build rejects (as an empty line), raises a ValueError naming the line."""
    try:
        tuples = []
        for chunk in line.split():
            match = _DUMP_TUPLE.fullmatch(chunk)
            values = match[1].split(",") if match else ()
            if len(values) != arity:
                raise ValueError(f"{chunk!r} is not a tuple of {arity} integers")
            tuples.append(tuple(int(v) for v in values))
        return build(tuple(tuples))
    except ValueError as exc:
        raise ValueError(f"malformed dump line {line!r}: {exc}") from None


def parse_cc(line: str) -> ColumnConvexPoly:
    return _parse_tuples(line, 2, ColumnConvexPoly)


def parse_plateau(line: str) -> PlateauPolycube:
    return _parse_tuples(line, 4, PlateauPolycube)


def dump_objects(family: str, k: int, size: int, stream) -> int:
    """Write every enumerated object of the family at (k, size) to stream,
    one per line in the dump format above, in the order of iter_<family>;
    returns the object count. Lines are written from the tuples of the DFS
    over the successors of the family's _RULES entry (for dcc and dplateau,
    the candidates of the cc and plateau loops that _reach admits; tests
    hold them to the whole-object search of iter_d*), without building an
    object per line."""
    if family not in _RULES:
        raise ValueError(f"unknown family {family!r}")
    text = cache(_slice_text)  # the slices repeat across lines
    count = 0
    for slices in _tuples(family, k, size):
        stream.write(" ".join(map(text, slices)) + "\n")
        count += 1
    return count
