"""Geometric brute force: object validity, agreement with the formula
routes, projections, directedness, and the dump format."""
import dataclasses
import io
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import cache, lru_cache
from itertools import compress, groupby, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polylat import oracle
from polylat.counting import count_cc, count_dcc, r_gf, s_closed
from polylat.oracle import (
    ColumnConvexPoly,
    PlateauPolycube,
    _columns_tail,
    _count_slices,
    _directed,
    _extents,
    _first_slices,
    _iter_slices,
    _next_columns,
    _next_strata,
    _reach,
    _sizes,
    _slice_reached,
    _slice_steps,
    _strata_tail,
    _tuples,
    count_sizes,
    dump_objects,
    enum_cc,
    enum_dcc,
    enum_dplateau,
    enum_plateau,
    format_cc,
    format_plateau,
    is_face_connected,
    iter_cc,
    iter_dcc,
    iter_dplateau,
    iter_plateau,
    lateral_area_voxels,
    parse_cc,
    parse_plateau,
    project,
    unproject,
)


def test_column_convex_validation():
    ColumnConvexPoly(((0, 2), (1, 1)))
    with pytest.raises(ValueError):
        ColumnConvexPoly(())
    with pytest.raises(ValueError):
        ColumnConvexPoly(((1, 2),))  # not translation-normalized
    with pytest.raises(ValueError):
        ColumnConvexPoly(((0, 0),))  # empty column
    with pytest.raises(ValueError):
        ColumnConvexPoly(((0, 1), (2, 1)))  # gap between columns


def test_plateau_validation():
    PlateauPolycube(((0, 1, 0, 2), (0, 2, 1, 1)))
    with pytest.raises(ValueError):
        PlateauPolycube(((1, 1, 0, 1),))
    with pytest.raises(ValueError):
        PlateauPolycube(((0, 1, 0, 1), (0, 1, 1, 1)))  # no overlap in z
    with pytest.raises(ValueError):
        PlateauPolycube(((0, 1, 0, 0),))


def test_validation_rejects_slices_that_touch_only_at_an_endpoint():
    for cols in (((0, 1), (1, 1)), ((0, 2), (-2, 2))):
        (b1, h1), (b2, h2) = cols
        with pytest.raises(ValueError, match=fr"^columns \({b1},{h1}\) and \({b2},{h2}\) do not touch$"):
            ColumnConvexPoly(cols)
    for cols in (((0, 2), (1, 1)), ((0, 2), (-1, 2))):
        ColumnConvexPoly(cols)
    # touching in y only, in z only, and in both; then overlapping in both
    for plats in (((0, 2, 0, 2), (2, 1, 0, 2)), ((0, 2, 0, 2), (0, 2, -1, 1)),
                  ((0, 1, 0, 1), (1, 1, 1, 1))):
        with pytest.raises(ValueError, match="^consecutive strata must overlap in y and in z$"):
            PlateauPolycube(plats)
    PlateauPolycube(((0, 2, 0, 2), (1, 1, -1, 2)))


def shares_a_row(lo1, ext1, lo2, ext2):
    return bool(set(range(lo1, lo1 + ext1)) & set(range(lo2, lo2 + ext2)))


@given(data=st.data(), axes=st.sampled_from((1, 2)), k=st.integers(1, 4))
def test_validation_accepts_exactly_consecutive_slices_that_share_a_row(data, axes, k):
    # normalized first slice, then random offsets and extents (0 included)
    slice_ = st.tuples(*(strategy for _ in range(axes) for strategy in (st.integers(-3, 3), st.integers(0, 3))))
    slices = [data.draw(slice_) for _ in range(k)]
    slices[0] = tuple(0 if i % 2 == 0 else v for i, v in enumerate(slices[0]))
    slices = tuple(slices)
    build = ColumnConvexPoly if axes == 1 else PlateauPolycube
    if any(ext < 1 for s in slices for ext in s[1::2]):
        with pytest.raises(ValueError, match="must be >= 1"):
            build(slices)
    elif all(shares_a_row(s[i], s[i + 1], t[i], t[i + 1])
             for s, t in zip(slices, slices[1:]) for i in range(0, 2 * axes, 2)):
        build(slices)
    else:
        with pytest.raises(ValueError, match="do not touch|must overlap in y and in z"):
            build(slices)


def test_object_measures():
    p = ColumnConvexPoly(((0, 2), (-1, 3)))
    assert p.width == 2
    assert p.area == 5
    q = PlateauPolycube(((0, 2, 0, 1), (0, 1, 0, 3)))
    assert q.width == 2
    assert q.lateral_area == (2 + 1) + (1 + 3)
    assert len(q.cells()) == 2 + 3


def test_objects_are_frozen_slotted_values():
    # no per-instance __dict__; equality, hash and repr are by the slices
    for build, slices, other in ((ColumnConvexPoly, ((0, 2), (-1, 3)), ((0, 1),)),
                                 (PlateauPolycube, ((0, 2, 0, 1), (0, 1, 0, 3)), ((0, 1, 0, 1),))):
        p = build(slices)
        assert not hasattr(p, "__dict__")
        name = "columns" if build is ColumnConvexPoly else "plateaus"
        assert build.__slots__ == (name,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, other)
        with pytest.raises((AttributeError, TypeError)):
            p.extra = 1
        assert getattr(p, name) == slices
        assert p == build(slices) and p != build(other)
        assert hash(p) == hash(build(slices)) == hash((slices,))
        assert len({p, build(slices), build(other)}) == 2
        assert repr(p) == f"{build.__name__}({name}={slices!r})"


def test_enum_cc():
    for n in range(1, 9):
        assert enum_cc(1, n) == 1
    assert enum_cc(2, 3) == 4
    assert enum_cc(3, 6) == 85
    assert enum_cc(3, 2) == 0
    with pytest.raises(ValueError):
        enum_cc(0, 3)


def test_enum_dcc():
    for k in range(1, 5):
        assert enum_dcc(k, k) == 1
    assert enum_dcc(2, 3) == 3
    assert enum_dcc(3, 5) == 15


def test_enum_plateau():
    for m in range(2, 9):
        assert enum_plateau(1, m) == m - 1
    assert enum_plateau(2, 5) == 8
    assert enum_plateau(3, 7) == 16
    assert enum_plateau(2, 3) == 0


def test_enum_dplateau():
    for k in range(1, 4):
        assert enum_dplateau(k, 2 * k) == 1
    assert enum_dplateau(2, 5) == 6
    assert enum_dplateau(3, 14) == s_closed(3, 14)


def test_enum_agrees_with_formulas_small():
    for k in range(1, 5):
        for n in range(1, 10):
            assert enum_cc(k, n) == count_cc(k, n)
            assert enum_dcc(k, n) == count_dcc(k, n)
    for k in range(1, 4):
        for m in range(2, 11):
            assert enum_plateau(k, m) == r_gf(k, m)
            assert enum_dplateau(k, m) == s_closed(k, m)


def test_iter_counts_match_enum():
    # the enum_* counting DFS against the literal generators; at k = 4 the
    # arithmetic next-to-last slice follows a placed prefix of two slices
    for k in range(1, 5):
        for n in range(1, 13):
            assert sum(1 for _ in _tuples("cc", k, n)) == enum_cc(k, n)
        for m in range(2, 13):
            assert sum(1 for _ in _tuples("plateau", k, m)) == enum_plateau(k, m)
    for k in range(1, 5):
        for n in range(1, 11):
            assert sum(1 for _ in iter_cc(k, n)) == enum_cc(k, n)
            assert sum(1 for _ in iter_dcc(k, n)) == enum_dcc(k, n)
    for k in range(1, 4):
        for m in range(2, 11):
            assert sum(1 for _ in iter_plateau(k, m)) == enum_plateau(k, m)
            assert sum(1 for _ in iter_dplateau(k, m)) == enum_dplateau(k, m)


# a -> the family whose slices have a axes, and the successors and the
# closed-form tail of its count
UNDIRECTED = {1: ("cc", _next_columns, _columns_tail), 2: ("plateau", _next_strata, _strata_tail)}


def test_counting_parts_match_literal_parts():
    # every first-column / first-stratum part on its own, and their sum; at
    # k = 5 two slices are placed by successors below the first one
    for a, (_, successors, tail) in UNDIRECTED.items():
        for k in range(1, 6):
            for size in range(a * k, 14):
                firsts = list(_first_slices(a, k, size))
                parts = [_count_slices([first], successors, tail, k, size) for first in firsts]
                literal = Counter(t[0] for t in _iter_slices(firsts, successors, k, size))
                assert parts == [literal[first] for first in firsts]
                assert sum(parts) == _count_slices(firsts, successors, tail, k, size) == sum(literal.values())


@settings(deadline=None)
@given(data=st.data(), k=st.integers(1, 5), size=st.integers(2, 12))
def test_counting_part_matches_literal_part_at_random_first_slice(data, k, size):
    # one first slice, then the placed and the arithmetic levels below it
    for a, (_, successors, tail) in UNDIRECTED.items():
        if size >= a * k:
            firsts = list(_first_slices(a, k, size))
            first = data.draw(st.sampled_from(firsts))
            assert _count_slices([first], successors, tail, k, size) == \
                Counter(t[0] for t in _iter_slices(firsts, successors, k, size))[first]


# The tails' sums written out, term by term over the extents of the last one
# or two slices after a slice of height ph (and depth pd): the closed forms
# of _columns_tail and _strata_tail are checked against these.
def columns_two_sum(ph, a):
    # a column of height h has ph + h - 1 bottoms, the last one a - 1
    return sum((ph + h - 1) * (a - 1) for h in range(1, a))


@lru_cache(maxsize=1 << 16)  # the grid below reuses each a's terms
def last_stratum_sum(ph, pd, a):
    return sum((ph + h - 1) * (pd + a - h - 1) for h in range(1, a))


def strata_two_sum(ph, pd, a):
    return sum((ph + h - 1) * (pd + s - h - 1) * last_stratum_sum(h, s - h, a - s)
               for s in range(2, a - 1) for h in range(1, s))


def assert_tails_match_sums(ph, pd, a):
    # the tails read only the previous slice's extents, not its offsets
    assert _columns_tail((-3, ph), 2, a) == columns_two_sum(ph, a), (ph, a)
    assert _strata_tail((2, ph, -1, pd), 1, a) == last_stratum_sum(ph, pd, a), (ph, pd, a)
    assert _strata_tail((2, ph, -1, pd), 2, a) == strata_two_sum(ph, pd, a), (ph, pd, a)


def test_tail_closed_forms_match_sums():
    for a in range(1, 61):
        for ph in range(1, 13):
            for pd in range(1, 13):
                assert_tails_match_sums(ph, pd, a)


@settings(deadline=None, max_examples=40)
@given(ph=st.integers(1, 300), pd=st.integers(1, 300), a=st.integers(1, 150))
def test_tail_closed_forms_match_sums_at_random_extents(ph, pd, a):
    assert_tails_match_sums(ph, pd, a)


def test_counting_dfs_passes_tails_their_domain():
    # the closed forms hold for area_left >= 1: the DFS hands a tail at
    # least one column's or stratum's least size per slice left
    def checked(tail, unit):
        def rule(prev, slices_left, size_left):
            assert slices_left in (1, 2) and size_left >= unit * slices_left, (prev, slices_left, size_left)
            return tail(prev, slices_left, size_left)
        return rule

    for a, (family, successors, tail) in UNDIRECTED.items():
        for k in range(1, 6):
            for size in range(a * k, 14):
                assert _count_slices(_first_slices(a, k, size), successors, checked(tail, a), k, size) == \
                    ENUMS[family](k, size)
    # outside the domain the forms are not the (empty) sums
    assert _columns_tail((0, 2), 2, 0) != columns_two_sum(2, 0)
    assert _strata_tail((0, 2, 0, 2), 1, 0) != last_stratum_sum(2, 2, 0)
    assert _strata_tail((0, 2, 0, 2), 2, 0) != strata_two_sum(2, 2, 0)


def test_iterator_order_is_pinned():
    # the dump order: by height (strata: by h + d, then h), then by offset
    # (strata: y0, then z0), from the first slice on
    assert list(_tuples("cc", 2, 3)) == [((0, 1), (-1, 2)), ((0, 1), (0, 2)), ((0, 2), (0, 1)), ((0, 2), (1, 1))]
    assert list(_tuples("plateau", 2, 5)) == [
        ((0, 1, 0, 1), (0, 1, -1, 2)),
        ((0, 1, 0, 1), (0, 1, 0, 2)),
        ((0, 1, 0, 1), (-1, 2, 0, 1)),
        ((0, 1, 0, 1), (0, 2, 0, 1)),
        ((0, 1, 0, 2), (0, 1, 0, 1)),
        ((0, 1, 0, 2), (0, 1, 1, 1)),
        ((0, 2, 0, 1), (0, 1, 0, 1)),
        ((0, 2, 0, 1), (1, 1, 0, 1)),
    ]


def axis_runs(k, total, size):
    # the sequences of k intervals (offset, extent) on one axis: the first
    # at 0, extents >= 1 summing to at most total, offsets in [-size, size],
    # consecutive ones sharing a row
    runs = [((0, e),) for e in range(1, total + 1)]
    for _ in range(k - 1):
        runs = [run + ((lo, e),) for run in runs for e in range(1, total - sum(x for _, x in run) + 1)
                for lo in range(-size, size + 1) if shares_a_row(*run[-1], lo, e)]
    return runs


def brute_force_tuples(a, k, size):
    # every normalized tuple of k slices with a axes and total size `size`,
    # from the definitions alone: slices overlap on every axis exactly when
    # each axis's intervals do, so the tuples are the a-fold products of
    # single-axis runs whose extents sum to size
    by_total = {}
    for run in axis_runs(k, size - (a - 1) * k, size):
        by_total.setdefault(sum(e for _, e in run), []).append(run)

    def fill(axes, left):
        if axes == 1:
            return [(run,) for run in by_total.get(left, ())]
        return [(run,) + rest for total, runs in by_total.items() for run in runs
                for rest in fill(axes - 1, left - total)]

    return [tuple(tuple(v for run in runs for v in run[i]) for i in range(k)) for runs in fill(a, size)]


def test_walk_order_matches_a_sort_of_brute_force_tuples():
    # the iterators and the dump read one walk: its order is checked here
    # against a sort of tuples built with no oracle rule, slice by slice by
    # (size, extents, offsets)
    def key(t):
        return [(sum(s[1::2]), s[1::2], s[::2]) for s in t]

    total = 0
    for a, k_max in ((1, 4), (2, 3)):
        family = UNDIRECTED[a][0]
        for k in range(1, k_max + 1):
            for size in range(10):
                walked = list(_tuples(family, k, size))
                assert walked == sorted(brute_force_tuples(a, k, size), key=key), (family, k, size)
                total += len(walked)
    assert total == 6446


def test_iter_objects_are_distinct_and_sized():
    seen = set()
    for p in iter_plateau(3, 8):
        assert p.width == 3
        assert p.lateral_area == 8
        seen.add(p)
    assert len(seen) == enum_plateau(3, 8)


def test_import_loads_no_process_pool():
    # every count runs in one process: importing the package and its CLI
    # loads neither concurrent.futures nor multiprocessing
    src = str(Path(oracle.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = ("import sys, polylat, polylat.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_first_slices_are_generated_on_demand():
    # 49,975,003 first strata at (2, 10000): taking one must not build them all
    for a in (1, 2):
        with pytest.raises(ValueError):
            _first_slices(a, 0, 10_000)  # the width is checked before any is taken
    tracemalloc.start()
    try:
        for a in (1, 2):
            assert next(_first_slices(a, 2, 10_000)) == (0, 1) * a
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_iterators_take_their_first_objects_lazily():
    # the walks generate slices on demand: no list of extents or of
    # successors per size is built, however large the size
    tracemalloc.start()
    try:
        for objects in (iter_plateau(4, 4000), iter_cc(5, 4000)):
            assert sum(1 for _ in zip(range(1000), objects)) == 1000
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_project():
    cube = PlateauPolycube(((0, 1, 0, 1),))
    a, b = project(cube)
    assert a == ColumnConvexPoly(((0, 1),))
    assert b == ColumnConvexPoly(((0, 1),))
    p = PlateauPolycube(((0, 2, 0, 1), (0, 1, 0, 3)))
    a, b = project(p)
    assert a.columns == ((0, 2), (0, 1))
    assert b.columns == ((0, 1), (0, 3))


def test_projection_areas_sum_to_lateral_area():
    # exhaustive over every width admissible at lateral area <= 12
    for m in range(2, 13):
        for k in range(1, m // 2 + 1):
            for p in iter_plateau(k, m):
                a, b = project(p)
                assert a.area + b.area == p.lateral_area


def test_unproject_round_trip():
    for width in range(1, 4):
        for total in range(2 * width, 11):
            for i in range(width, total - width + 1):
                for a in iter_cc(width, i):
                    for b in iter_cc(width, total - i):
                        p = unproject(a, b)
                        assert project(p) == (a, b)


# one object drawn from everything the literal iterators yield at a small
# random (width, size)
column_convex = st.integers(1, 4).flatmap(
    lambda k: st.integers(k, 10).flatmap(lambda n: st.sampled_from(list(iter_cc(k, n))))
)
plateaus = st.integers(1, 3).flatmap(
    lambda k: st.integers(2 * k, 9).flatmap(lambda m: st.sampled_from(list(iter_plateau(k, m))))
)


@given(plateaus)
def test_unproject_inverts_project_on_random_objects(p):
    assert unproject(*project(p)) == p


def test_unproject_rejects_width_mismatch():
    a = ColumnConvexPoly(((0, 1), (0, 1)))
    b = ColumnConvexPoly(((0, 1), (0, 1), (0, 1)))
    with pytest.raises(ValueError):
        unproject(a, b)


def test_directedness_2d():
    bar = ColumnConvexPoly(((0, 1),) * 4)
    assert bar.is_directed()
    assert ColumnConvexPoly(((0, 1), (0, 2))).is_directed()
    assert not ColumnConvexPoly(((0, 1), (-1, 2))).is_directed()


def test_directedness_2d_matches_monotone_bottoms():
    # derived characterization: directed iff column bottoms never decrease
    for k in range(1, 4):
        for n in range(k, 9):
            for p in iter_cc(k, n):
                bottoms = [b for b, _ in p.columns]
                assert p.is_directed() == (bottoms == sorted(bottoms))


def test_directedness_3d_matches_monotone_offsets():
    for k in range(1, 4):
        for m in range(2 * k, 9):
            for p in iter_plateau(k, m):
                ys = [y for y, _, _, _ in p.plateaus]
                zs = [z for _, _, z, _ in p.plateaus]
                monotone = ys == sorted(ys) and zs == sorted(zs)
                assert p.is_directed() == monotone


def directed_from_some_root(p):
    """East/North/Ahead reachability tried from every first-stratum cell:
    directed when any root reaches all cells."""
    cells = p.cells()
    y0, h, z0, d = p.plateaus[0]
    for root in ((0, y, z) for y in range(y0, y0 + h) for z in range(z0, z0 + d)):
        seen, frontier = {root}, [root]
        while frontier:
            x, y, z = frontier.pop()
            for nxt in ((x + 1, y, z), (x, y + 1, z), (x, y, z + 1)):
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if seen == cells:
            return True
    return False


def directed_by_cell_set(plats):
    """The whole-object search over a built cell set: East/North/Ahead
    reachability from the minimal corner of the first stratum."""
    cells = {(x, y, z) for x, (y0, h, z0, d) in enumerate(plats)
             for y in range(y0, y0 + h) for z in range(z0, z0 + d)}
    root = (0, plats[0][0], plats[0][2])
    seen, frontier = {root}, [root]
    while frontier:
        x, y, z = frontier.pop()
        for nxt in ((x + 1, y, z), (x, y + 1, z), (x, y, z + 1)):
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(cells)


@st.composite
def strata_anywhere(draw, depth):
    """A stratum tuple of width <= 5 whose consecutive strata overlap, its
    first stratum far from the origin; depth fixes every stratum's depth
    at 1 and its z at 0 (a lifted column tuple), or draws them. Offsets
    that never decrease (so directed tuples) are drawn about half the time."""
    far, extent = st.integers(-10**6, 10**6), st.integers(1, 4)
    forward = draw(st.booleans())
    y, h = draw(far), draw(extent)
    z, d = (0, 1) if depth else (draw(far), draw(extent))
    plats = [(y, h, z, d)]
    for _ in range(draw(st.integers(0, 4))):
        py, ph, pz, pd = plats[-1]
        h = draw(extent)
        y = draw(st.integers(py if forward else py - h + 1, py + ph - 1))
        if not depth:
            d = draw(extent)
            z = draw(st.integers(pz if forward else pz - d + 1, pz + pd - 1))
        plats.append((y, h, z, d))
    return tuple(plats)


@settings(max_examples=300)
@given(st.one_of(strata_anywhere(depth=False), strata_anywhere(depth=True)))
def test_is_directed_matches_cell_set_search(plats):
    assert oracle._is_directed(plats) == directed_by_cell_set(plats)


def test_is_directed_builds_no_cell_set(monkeypatch):
    def no_cells(self):
        raise AssertionError("cells() called")

    monkeypatch.setattr(PlateauPolycube, "cells", no_cells)
    assert sum(p.is_directed() for p in iter_plateau(3, 9)) == enum_dplateau(3, 9)
    assert sum(p.is_directed() for p in iter_cc(4, 9)) == enum_dcc(4, 9)


def north_east_directed(cols):
    """North/East reachability over the cells of a column tuple, from the
    bottom cell of its first column: directed when it reaches all cells."""
    cells = {(x, y) for x, (b, h) in enumerate(cols) for y in range(b, b + h)}
    root = (0, cols[0][0])
    seen, frontier = {root}, [root]
    while frontier:
        x, y = frontier.pop()
        for nxt in ((x, y + 1), (x + 1, y)):
            if nxt in cells and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen == cells


def test_directedness_2d_lift_matches_north_east_search():
    # the 3D search on columns lifted to depth-1 strata against a plain 2D one
    for k in range(1, 6):
        for n in range(k, 13):
            for cols in _tuples("cc", k, n):
                assert ColumnConvexPoly(cols).is_directed() == north_east_directed(cols), cols


def test_directedness_3d_matches_search_from_every_root():
    # the minimal-corner search against every root
    for k in range(1, 4):
        for m in range(2 * k, 11):
            for p in iter_plateau(k, m):
                assert p.is_directed() == directed_from_some_root(p)


def test_staged_count_matches_whole_object_filter():
    # the slice-staged search against the whole-object BFS on every tuple
    for k in range(1, 6):
        for n in range(13):
            assert enum_dcc(k, n) == sum(p.is_directed() for p in iter_cc(k, n)), (k, n)
    for k in range(1, 5):
        for m in range(13):
            assert enum_dplateau(k, m) == sum(p.is_directed() for p in iter_plateau(k, m)), (k, m)


def test_width_one_directed_cell_builds_no_map():
    # a width-1 cell is its first stratum alone, which is never searched, so
    # neither the count nor the dump (its lines go to a sink that keeps
    # none) builds a cell map, whose size would grow with the lateral area
    class WriteOnlySink:
        def write(self, line):
            pass

    tracemalloc.start()
    try:
        assert enum_dplateau(1, 60) == 59
        assert dump_objects("dplateau", 1, 60, WriteOnlySink()) == 59
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_no_step_map_is_built_twice(monkeypatch):
    built = []

    def recording_steps(s):
        built.append(s)
        return _slice_steps(s)

    monkeypatch.setattr(oracle, "_slice_steps", recording_steps)
    for family, enum, unit, width_one in (("dcc", enum_dcc, 1, 1), ("dplateau", enum_dplateau, 2, 39)):
        # none at width 1
        built.clear()
        assert enum(1, 40) == dump_objects(family, 1, 40, io.StringIO()) == width_one
        assert built == [], family
        for k in range(2, 5):
            for size in range(unit * k, 13):
                for run in (lambda: enum(k, size),
                            lambda: dump_objects(family, k, size, io.StringIO())):
                    built.clear()
                    run()
                    assert len(built) == len(set(built)), (family, k, size)
                    # one map per extents, built at the origin
                    assert all(not any(s[::2]) for s in built), (family, k, size)


def test_each_seed_box_is_searched_once(monkeypatch):
    # a verdict depends only on the slice's extents and its seed box at the
    # origin, so one call searches each such pair once and reads it after
    searched = []

    def recording_search(steps, seeds):
        seeds = tuple(seeds)
        searched.append((frozenset(steps), seeds))
        return _slice_reached(steps, seeds)

    monkeypatch.setattr(oracle, "_slice_reached", recording_search)
    for family, enum, unit in (("dcc", enum_dcc, 1), ("dplateau", enum_dplateau, 2)):
        for k in range(2, 5):
            for size in range(unit * k, 13):
                for run in (lambda: enum(k, size),
                            lambda: dump_objects(family, k, size, io.StringIO())):
                    searched.clear()
                    run()
                    assert len(searched) == len(set(searched)), (family, k, size)
        assert searched, family


def test_verdict_tables_index_only_real_boxes(monkeypatch):
    # a seed box [lo, hi) has lo < hi, so an axis of extent ext has
    # ext * (ext + 1) // 2 boxes, and each table holds one byte per box
    built, sizes = [], []

    def recording_steps(s):
        built.append(s[1::2])
        return _slice_steps(s)

    class RecordingBytes(bytearray):
        def __init__(self, size):
            sizes.append(size)
            super().__init__(size)

    monkeypatch.setattr(oracle, "_slice_steps", recording_steps)
    monkeypatch.setattr(oracle, "bytearray", RecordingBytes, raising=False)
    for enum, k, size, count in ((enum_dcc, 4, 14, 8008), (enum_dplateau, 2, 14, 3003),
                                 (enum_dplateau, 3, 14, 24310)):
        built.clear()
        sizes.clear()
        assert enum(k, size) == count
        assert built, (enum, k, size)
        assert sizes == [prod(ext * (ext + 1) // 2 for ext in extents) for extents in built], (enum, k, size)


def test_strata_tail_is_evaluated_once_per_shape(monkeypatch):
    # the tail depends on the stratum above only through its extents
    evaluated = []

    def recording_tail(prev, strata_left, area_left):
        evaluated.append((prev[1::2], strata_left, area_left))
        return _strata_tail(prev, strata_left, area_left)

    monkeypatch.setattr(oracle, "_strata_tail", recording_tail)
    for k in range(2, 6):
        for m in range(2 * k, 17):
            evaluated.clear()
            assert enum_plateau(k, m) == r_gf(k, m), (k, m)
            assert evaluated, (k, m)
            assert len(evaluated) == len(set(evaluated)), (k, m)


ENUMS = {"cc": enum_cc, "dcc": enum_dcc, "plateau": enum_plateau, "dplateau": enum_dplateau}


def test_counts_keep_nothing_between_calls(monkeypatch):
    # the verdicts, the per-shape tails and the per-width records are built
    # per call: a second, identical call searches, records and evaluates as
    # much as the first
    calls = Counter()

    def recording(name, rule):
        def record(*args):
            calls[name] += 1
            return rule(*args)
        return record

    def recording_walk(firsts, successors, tail, k, size):
        return _count_slices(firsts, successors, recording("recorded", tail), k, size)

    walked = {family: {size: enum(4, size) for size in range(8, 14)} for family, enum in ENUMS.items()}
    monkeypatch.setattr(oracle, "_count_slices", recording_walk)
    monkeypatch.setattr(oracle, "_slice_reached", recording("searched", _slice_reached))
    monkeypatch.setattr(oracle, "_strata_tail", recording("evaluated", _strata_tail))
    monkeypatch.setattr(oracle, "_columns_tail", recording("evaluated", _columns_tail))
    runs = []
    for _ in range(2):
        calls.clear()
        assert enum_dplateau(3, 12) == 5005 and enum_plateau(4, 12) == r_gf(4, 12)
        for family, counts in walked.items():
            assert count_sizes(family, 4, range(8, 14)) == counts, family
        runs.append(calls.copy())
    assert runs[0]["searched"] and runs[0]["evaluated"] and runs[0]["recorded"]
    assert runs[1] == runs[0]


@pytest.mark.parametrize("family", ENUMS)
def test_one_walk_counts_every_size_of_a_width(family):
    # k = 1, sizes below the support, an unordered list with gaps, and
    # every size up to 14
    for k in range(1, 6):
        for sizes in ([14, 3, 0, 9, 7, 12, 1], range(15)):
            counts = count_sizes(family, k, sizes)
            assert counts == {size: ENUMS[family](k, size) for size in sizes}, (family, k)
            assert list(counts) == list(sizes), (family, k)
    assert count_sizes(family, 3, []) == {}


def plainly_reached(successors):
    # the successors a plain per-candidate search fully reaches: each one
    # searched from the cells where it overlaps the slice before it, on the
    # step map of the slice at its own place, built once per placed slice
    # for the walk
    steps = cache(_slice_steps)

    def reached_only(prev, slices_left, size_left):
        for nxt, used in successors(prev, slices_left, size_left):
            box = product(*(range(max(lo, prev_lo), min(lo + ext, prev_lo + prev_ext))
                            for lo, ext, prev_lo, prev_ext in zip(nxt[::2], nxt[1::2], prev[::2], prev[1::2])))
            if _slice_reached(steps(nxt), box):
                yield nxt, used
    return reached_only


@settings(deadline=None)
@given(data=st.data())
def test_reach_counts_match_a_per_candidate_filter(data):
    # every pair of extents one _reach answers, against the plain search of
    # each candidate; the pairs share the verdict tables of one call. The
    # directed walks keep the loop's candidates by compress, which stops at
    # the shorter stream, so the verdicts must be exactly as many as the
    # candidates of extents e, and in their order
    for loop, axes in ((_next_columns, 1), (_next_strata, 2)):
        verdicts = _reach()
        extents = st.tuples(*(st.integers(1, 7) for _ in range(axes)))
        for _ in range(data.draw(st.integers(1, 6))):
            pe, e = data.draw(extents), data.draw(extents)
            prev = tuple(v for ext in pe for v in (data.draw(st.integers(-5, 5)), ext))
            candidates = [(nxt, used) for nxt, used in loop(prev, 1, sum(e)) if nxt[1::2] == e]
            plain = [nxt for nxt, _ in plainly_reached(lambda *_: candidates)(prev, 1, sum(e))]
            found = verdicts(pe, e)
            assert len(found) == len(candidates) and set(found) <= {1, 2}, (pe, e)
            kept = list(compress((nxt for nxt, _ in candidates), map((2).__eq__, found)))
            assert kept == plain, (pe, e)
            assert found.count(2) == len(kept), (pe, e)


def test_extents_rules_follow_the_successor_rules():
    # the directed DFS places by the size and extents rules, the cc and
    # plateau DFS by _next_columns/_next_strata: both give the same extents,
    # each with its size, in the same order, wherever the DFS asks (every
    # slice left has at least the least size, a)
    for a, prevs in ((1, ((1, 3), (-2, 1))), (2, ((1, 3, 0, 1), (-2, 1, 4, 2)))):
        successors = UNDIRECTED[a][1]
        for prev in prevs:
            for slices_left in range(1, 6):
                for size_left in range(a * slices_left, 20):
                    runs = [key for key, _ in groupby((nxt[1::2], used) for nxt, used in
                                                      successors(prev, slices_left, size_left))]
                    assert runs == [(e, s) for s in _sizes(a, slices_left, size_left) for e in _extents(a, s)], \
                        (prev, slices_left, size_left)


def shifted(s, offsets):
    # the slice s moved by offsets, one per axis
    return tuple(v + offsets[i // 2] if i % 2 == 0 else v for i, v in enumerate(s))


@settings(deadline=None)
@given(data=st.data(), slices_left=st.integers(1, 4), size_left=st.integers(2, 12))
def test_reached_successors_move_with_their_slice(data, slices_left, size_left):
    # the fact the memoized tail rests on: shifting prev shifts its reached
    # successors the same way, and yields no other
    for a in (1, 2):
        extent, offset = st.integers(1, 6), st.integers(-8, 8)
        prev = tuple(data.draw(st.tuples(*(strategy for _ in range(a) for strategy in (offset, extent)))))
        shift = data.draw(st.tuples(*(offset for _ in range(a))))
        loop = UNDIRECTED[a][1]
        here = list(_directed(a, loop)[0](prev, slices_left, size_left))
        moved = list(_directed(a, loop)[0](shifted(prev, shift), slices_left, size_left))
        assert moved == [(shifted(nxt, shift), used) for nxt, used in here], (prev, shift)


def test_memoized_tail_matches_plain_staged_search():
    # the last two slices counted from per-pair reach counts against every
    # slice placed and searched on its own
    for a, k_max, size_max in ((1, 6, 16), (2, 5, 14)):
        successors = UNDIRECTED[a][1]
        for k in range(1, k_max + 1):
            for size in range(size_max + 1):
                plain = sum(1 for _ in _iter_slices(_first_slices(a, k, size), plainly_reached(successors), k, size))
                assert _count_slices(_first_slices(a, k, size), *_directed(a, successors), k, size) == plain, \
                    (a, k, size)


def test_step_maps_are_bounded_by_the_extents():
    # the maps and the tail's counts are kept per shape, not per placed slice
    tracemalloc.start()
    try:
        assert enum_dplateau(2, 14) == 3003
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_first_slices_are_reached_from_their_root():
    # the reach rule searches no first slice: North (and Ahead) steps from
    # its minimal cell cover it
    for a in (1, 2):
        for k in range(1, 5):
            for size in range(15):
                for first in _first_slices(a, k, size):
                    assert _slice_reached(_slice_steps(first), [first[::2]]), first


def test_staged_count_matches_search_from_every_root():
    for k in range(1, 4):
        for m in range(10):
            assert enum_dplateau(k, m) == sum(map(directed_from_some_root, iter_plateau(k, m))), (k, m)


def test_directedness_transfers_through_projection():
    for k in range(1, 4):
        for m in range(2 * k, 11):
            for p in iter_plateau(k, m):
                a, b = project(p)
                assert p.is_directed() == (a.is_directed() and b.is_directed())


def test_lateral_area_voxels():
    assert lateral_area_voxels({(0, 0, 0)}) == 2
    assert lateral_area_voxels({(0, 0, 0), (0, 0, 1)}) == 3  # bar along the depth axis
    with pytest.raises(ValueError):
        lateral_area_voxels(set())
    with pytest.raises(ValueError):
        lateral_area_voxels({(0, 0, 0), (2, 0, 0)})


def test_same_volume_different_lateral_area():
    # two cells along the depth axis vs two cells along the width axis
    deep = PlateauPolycube(((0, 1, 0, 2),))
    wide = PlateauPolycube(((0, 1, 0, 1), (0, 1, 0, 1)))
    assert len(deep.cells()) == len(wide.cells()) == 2
    assert lateral_area_voxels(deep.cells()) == 3
    assert lateral_area_voxels(wide.cells()) == 4


def test_lateral_area_voxels_matches_stratum_sum():
    for k in range(1, 4):
        for m in range(2 * k, 10):
            for p in iter_plateau(k, m):
                assert lateral_area_voxels(p.cells()) == p.lateral_area


def test_face_connectivity():
    assert is_face_connected({(0, 0, 0), (1, 0, 0), (1, 1, 0)})
    assert not is_face_connected({(0, 0, 0), (1, 1, 0)})
    assert not is_face_connected(set())


def test_dump_and_parse_round_trip():
    stream = io.StringIO()
    count = dump_objects("cc", 2, 4, stream)
    lines = stream.getvalue().splitlines()
    assert count == enum_cc(2, 4) == len(lines)
    assert {parse_cc(line) for line in lines} == set(iter_cc(2, 4))

    stream = io.StringIO()
    count = dump_objects("dplateau", 2, 6, stream)
    lines = stream.getvalue().splitlines()
    assert count == enum_dplateau(2, 6) == len(lines)
    parsed = [parse_plateau(line) for line in lines]
    assert all(p.is_directed() for p in parsed)


def test_dump_lines_are_the_iterators_objects_in_order():
    # the dump writes the DFS's tuples and prunes the directed families by
    # the slice-staged search; the iterators build every object and search
    # it whole
    for family, iterate, formatter, k_max, low, high in (
        ("cc", iter_cc, format_cc, 5, lambda k: k - 1, 10),
        ("dcc", iter_dcc, format_cc, 5, lambda k: k - 1, 10),
        ("plateau", iter_plateau, format_plateau, 4, lambda k: 2 * k - 1, 10),
        ("dplateau", iter_dplateau, format_plateau, 4, lambda k: 2 * k - 1, 10),
    ):
        for k in range(1, k_max + 1):
            for size in range(low(k), high + 1):
                stream = io.StringIO()
                count = dump_objects(family, k, size, stream)
                expected = [formatter(p) + "\n" for p in iterate(k, size)]
                assert stream.getvalue() == "".join(expected), (family, k, size)
                assert count == len(expected)


@given(column_convex, plateaus)
def test_parse_inverts_format_on_random_objects(poly, cube):
    assert parse_cc(format_cc(poly)) == poly
    assert parse_plateau(format_plateau(cube)) == cube


def test_format_parse_inverse():
    p = ColumnConvexPoly(((0, 2), (-1, 3), (1, 1)))
    assert parse_cc(format_cc(p)) == p
    q = PlateauPolycube(((0, 2, 0, 1), (-1, 3, 0, 2)))
    assert parse_plateau(format_plateau(q)) == q


@pytest.mark.parametrize("parse, line", [
    (parse_cc, "(0,1,3)"),
    (parse_cc, "0,1"),
    (parse_cc, "(0,x)"),
    (parse_cc, "(0,+1)"),
    (parse_cc, "(0,1_0)"),
    (parse_cc, "(0,1) 1,1"),
    (parse_cc, ""),
    (parse_plateau, "(0,1,0)"),
    (parse_plateau, "(0,1,0,1) (0,1)"),
    (parse_plateau, "(0,1,0,1.5)"),
    (parse_plateau, "0,1,0,1"),
    (parse_plateau, "   "),
])
def test_parse_rejects_malformed_lines(parse, line):
    with pytest.raises(ValueError) as excinfo:
        parse(line)
    assert line in str(excinfo.value)


def test_dump_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'polyhex'"):
        dump_objects("polyhex", 2, 4, io.StringIO())


def test_count_sizes_rejects_unknown_family():
    # the same check and message as the dump, at every width
    for k in (1, 2):
        with pytest.raises(ValueError, match="^unknown family 'xx'$"):
            count_sizes("xx", k, [4])
