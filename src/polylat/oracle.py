"""Brute-force geometric enumeration, straight from the definitions.

A column-convex polyomino is stored as its column intervals (bottom,
height), left to right; a plateau polycube as its strata (y0, h, z0, d).
Both are translation-normalized: the first column bottom (resp. the first
stratum's y0 and z0) is 0. Consecutive columns must share an edge
(overlapping intervals); consecutive strata must overlap in y and in z.
That constructive representation is unique per object, so enumeration is
plain depth-first generation over heights/depths and offsets, pruned on
the remaining size budget, with no canonical-form hashing.

The iter_* generators (and so the bijection suite) build and yield every
object literally, by one DFS (_iter_slices) over a successor rule per
slice kind (_next_columns, _next_strata). The enum_* counts walk the same
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
that search. One reach rule (_reached) runs it one slice at a time and
feeds both DFS walks, the directed counts and the directed dumps: no step
decreases x, so each later slice is searched from the East step of the
previous slice's cells, and a prefix is dropped once one of its slices is
not fully reached. A first slice, a box, is not searched: North and Ahead
steps from the root cover it. Steps do not depend on where a slice sits,
so one step map is built per slice extents, at the origin, once per call,
and a width-1 cell builds none. A verdict depends only on those extents
and the seed box, so beside each map one verdict byte per seed box
records whether the box was searched and with what result: each
(extents, seed box) is searched once per call. For the same reason the
directed counts also end with a tail rule for the last two slices: later
slices are placed relative to a fully reached slice, so the ways to end
below it depend only on its extents and the size left; they are searched
once per shape and kept for the call by the same _per_shape as the
plateau tail. It too stops at two slices.

All of a family's rules sit in one entry of _RULES: its first-slice rule
(_first_columns, _first_strata), which generates the normalized first
slices an object can start with in DFS order, and a builder of the
(successors, tail) pair its count walks (_directed for dcc and dplateau).
The builder makes a fresh pair per call, so the memos of _reached and
_per_shape live for that call only. The counts (_count) and dump_objects
(--dump, which writes the DFS's tuples without building objects) both
read that entry. Every count runs in the calling process.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
from math import prod
from typing import Iterable, Iterator

Column = tuple[int, int]
Stratum = tuple[int, int, int, int]


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def _first_columns(k: int, n: int) -> Iterator[Column]:
    """The normalized first columns (0, h) of the width-k column tuples of
    area n, in DFS order: every height that leaves each later column one
    cell, the whole area for a single column. Empty when n < k. The width
    is checked at the call, the columns are generated on demand."""
    if k < 1:
        raise ValueError(f"width must be >= 1, got {k}")
    if n < k:
        return iter(())
    h_min = n if k == 1 else 1
    return ((0, h) for h in range(h_min, n - k + 2))


def _first_strata(k: int, m: int) -> Iterator[Stratum]:
    """The normalized first strata (0, h, 0, d) of the width-k stratum
    tuples of lateral area m, in DFS order (by h + d, then h): each later
    stratum needs h + d >= 2, a single one takes it all. Empty when m < 2k.
    The width is checked at the call, the strata are generated on demand."""
    if k < 1:
        raise ValueError(f"width must be >= 1, got {k}")
    if m < 2 * k:
        return iter(())
    s_min = m if k == 1 else 2
    return ((0, h, 0, s - h) for s in range(s_min, m - 2 * (k - 1) + 1) for h in range(1, s))


def _next_columns(prev: Column, cols_left: int, area_left: int) -> Iterator[tuple[Column, int]]:
    """The columns (b, h) that can follow prev when cols_left columns, this
    one included, share area_left cells, each with its area h: heights
    pruned on the remaining area, then the overlap-feasible bottoms."""
    # later columns need 1 cell each; the last column takes the rest
    h_min = area_left if cols_left == 1 else 1
    pb, ph = prev
    for h in range(h_min, area_left - (cols_left - 1) + 1):
        for b in range(pb - h + 1, pb + ph):
            yield (b, h), h


def _next_strata(prev: Stratum, cols_left: int, area_left: int) -> Iterator[tuple[Stratum, int]]:
    """The strata (y, h, z, d) that can follow prev when cols_left strata,
    this one included, share lateral area area_left, each with its lateral
    area h + d: (height, depth) pairs pruned on the remaining area, then the
    overlap-feasible y/z offsets."""
    # later strata need h + d >= 2 each; the last stratum takes the rest
    s_min = area_left if cols_left == 1 else 2
    py, ph, pz, pd = prev
    for s in range(s_min, area_left - 2 * (cols_left - 1) + 1):
        for h in range(1, s):
            d = s - h
            for y in range(py - h + 1, py + ph):
                for z in range(pz - d + 1, pz + pd):
                    yield (y, h, z, d), s


def _iter_slices(first_slices, successors, k: int, size: int) -> Iterator[tuple]:
    """All slice tuples of width k and total size `size`, one first slice
    of first_slices(k, size) after the other, by DFS over
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

    for first in first_slices(k, size):
        current.append(first)
        yield from rec(k - 1, size - sum(first[1::2]))
        current.pop()


# (k, n): the normalized column tuples of width k and area n, and
# (k, m): the normalized stratum tuples of width k and lateral area m.
_iter_columns = partial(_iter_slices, _first_columns, _next_columns)
_iter_strata = partial(_iter_slices, _first_strata, _next_strata)


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
    extents, slices left, size left): the tails of both kinds of counting
    DFS depend on prev only through its extents, since every successor is
    placed relative to prev's offsets."""
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


def _overlap(lo: int, ext: int, prev_lo: int, prev_ext: int) -> range:
    """The cells of the axis interval [lo, lo + ext) that lie in the
    previous slice's [prev_lo, prev_lo + prev_ext), counted from lo."""
    hi = prev_lo + prev_ext - lo
    return range(prev_lo - lo if prev_lo > lo else 0, hi if hi < ext else ext)


def _reached(successors):
    """The successor rule of the directed families' reachability search,
    staged slice by slice: it yields only the slices fully reached from the
    East step of the previous slice's cells. No East, North or Ahead step
    decreases x, so the cells of a slice can be reached only from the slices
    to its left, and either DFS drops a prefix as soon as one of its slices
    is not. First slices are not searched: a first slice is a box, and North
    and Ahead steps from its minimal cell (the root) cover it. Steps do not
    depend on where a slice sits, so one map per slice extents is built, at
    the origin, once per call: a successor is searched in the map of its
    extents, seeded with its cells one East step from prev, the box where
    the two slices overlap on every axis, shifted to the successor's origin.
    The verdict depends on nothing else, so beside each map a bytearray
    keeps one verdict byte per seed box, at the box's bounds [lo, hi) on
    each axis: a seed box is never empty, so 0 <= lo < hi <= ext, and the
    axis index hi * (hi - 1) // 2 + lo takes ext * (ext + 1) // 2 slots
    (tri holds the triangular numbers). A byte is 0 not searched yet, 1 not
    reached, 2 reached. Each (extents, seed box) is searched once per call,
    and every later placement reads its byte."""
    known: dict[tuple, tuple[dict, bytearray]] = {}  # extents -> (step map at the origin, verdicts)
    tri = [0]  # n -> n * (n - 1) // 2: the boxes [lo, hi) with hi < n

    def reached_successors(prev: tuple, slices_left: int, size_left: int) -> Iterator[tuple[tuple, int]]:
        prev_los, prev_exts = prev[::2], prev[1::2]
        for nxt, used in successors(prev, slices_left, size_left):
            extents = nxt[1::2]
            known_here = known.get(extents)
            if known_here is None:
                tri.extend(n * (n - 1) // 2 for n in range(len(tri), max(extents) + 2))
                known_here = known[extents] = (_slice_steps(tuple(v for ext in extents for v in (0, ext))),
                                               bytearray(prod(tri[ext + 1] for ext in extents)))
            steps, verdicts = known_here
            los = nxt[::2]
            at = 0
            for lo, ext, prev_lo, prev_ext in zip(los, extents, prev_los, prev_exts):
                # the overlap [start, stop) of _overlap, without building it
                start, stop = prev_lo - lo, prev_lo + prev_ext - lo
                at = at * tri[ext + 1] + tri[stop if stop < ext else ext] + (start if start > 0 else 0)
            verdict = verdicts[at]
            if not verdict:
                box = product(*map(_overlap, los, extents, prev_los, prev_exts))
                verdict = verdicts[at] = 2 if _slice_reached(steps, box) else 1
            if verdict == 2:
                yield nxt, used

    return reached_successors


def _directed(successors):
    """The (successors, tail) pair of a directed family's count: the slices
    _reached reaches, with the last two slices counted once per shape. The
    DFS reaches a slice only when it is fully reached, successors are placed
    relative to its offsets, and steps do not depend on where a slice sits,
    so the ways to end below it with 1 or 2 slices depend only on its
    extents and the size left; the tail searches them once per (extents,
    slices left, size left) and _per_shape keeps the count for the call, as
    it keeps _strata_tail's for plateau. Like _columns_tail and _strata_tail
    it stops at two slices."""
    reached = _reached(successors)

    def ends(prev: tuple, slices_left: int, size_left: int) -> int:
        return sum(1 if slices_left == 1 else tail(nxt, 1, size_left - used)
                   for nxt, used in reached(prev, slices_left, size_left))

    tail = _per_shape(ends)
    return reached, tail


# family -> (its first-slice rule, a builder of the (successors, tail) pair
# its count walks). A builder returns a fresh pair on each call, so the
# memos in it last one call. The plateau tail is kept per shape: the
# stratum above the last two sits at many offsets with the same extents.
_RULES = {
    "cc": (_first_columns, lambda: (_next_columns, _columns_tail)),
    "dcc": (_first_columns, partial(_directed, _next_columns)),
    "plateau": (_first_strata, lambda: (_next_strata, _per_shape(_strata_tail))),
    "dplateau": (_first_strata, partial(_directed, _next_strata)),
}


def iter_cc(k: int, n: int) -> Iterator[ColumnConvexPoly]:
    """Every normalized column-convex polyomino with k columns and area n."""
    for cols in _iter_columns(k, n):
        yield ColumnConvexPoly(cols)


def iter_dcc(k: int, n: int) -> Iterator[ColumnConvexPoly]:
    """The polyominoes of iter_cc(k, n) whose is_directed() is true."""
    return (p for p in iter_cc(k, n) if p.is_directed())


def iter_plateau(k: int, m: int) -> Iterator[PlateauPolycube]:
    """Every normalized plateau polycube with k strata and lateral area m."""
    for plats in _iter_strata(k, m):
        yield PlateauPolycube(plats)


def iter_dplateau(k: int, m: int) -> Iterator[PlateauPolycube]:
    """The polycubes of iter_plateau(k, m) whose is_directed() is true."""
    return (p for p in iter_plateau(k, m) if p.is_directed())


def _count(family: str, k: int, size: int) -> int:
    """The family's count at (k, size): _count_slices over its first slices
    and a fresh (successors, tail) pair of its _RULES entry."""
    first_slices, rules = _RULES[family]
    return _count_slices(first_slices(k, size), *rules(), k, size)


def enum_cc(k: int, n: int) -> int:
    """Count of column-convex polyominoes with k columns and area n, by
    exhaustive search with the last two columns counted by the closed form
    of _columns_tail. 0 when n < k."""
    return _count("cc", k, n)


def enum_dcc(k: int, n: int) -> int:
    """Count of directed column-convex polyominoes with k columns and
    area n: the column tuples of _iter_columns whose every cell the
    slice-staged search reaches. 0 when n < k."""
    return _count("dcc", k, n)


def enum_plateau(k: int, m: int) -> int:
    """Count of plateau polycubes with k strata and lateral area m, by
    exhaustive search with the last two strata counted by the closed forms
    of _strata_tail. 0 when m < 2k."""
    return _count("plateau", k, m)


def enum_dplateau(k: int, m: int) -> int:
    """Count of directed plateau polycubes with k strata and lateral area m:
    the stratum tuples of _iter_strata whose every cell the slice-staged
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
    the slices _reached reaches; tests hold them to the whole-object search
    of iter_d*), without building an object per line."""
    if family not in _RULES:
        raise ValueError(f"unknown family {family!r}")
    first_slices, rules = _RULES[family]
    text = lru_cache(maxsize=None)(_slice_text)  # the slices repeat across lines
    count = 0
    for slices in _iter_slices(first_slices, rules()[0], k, size):
        stream.write(" ".join(map(text, slices)) + "\n")
        count += 1
    return count
