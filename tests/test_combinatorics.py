"""Binomials, Delannoy numbers, the triangle, and the tiling count, each
checked against an independent in-test route."""
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import pytest

from polylat import combinatorics
from polylat.combinatorics import (
    antidiagonal,
    binomial,
    delannoy_closed,
    delannoy_recursive,
    domino_tilings,
    tribonacci_triangle,
    vandermonde_variant,
)
from polylat.reference_tables import TRIANGLE_ROWS


def test_binomial_basic():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    assert binomial(7, 0) == 1
    assert binomial(-1, 0) == 0
    assert binomial(4, -1) == 0
    assert binomial(-3, -2) == 0
    assert binomial(0, 0) == 1


def test_binomial_matches_pascal_triangle():
    row = [1]
    for n in range(21):
        assert row == [binomial(n, k) for k in range(n + 1)]
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]


def _delannoy_paths(n, m):
    # independent route: walk the lattice
    @lru_cache(maxsize=None)
    def go(x, y):
        if x == n and y == m:
            return 1
        total = 0
        if x < n:
            total += go(x + 1, y)
        if y < m:
            total += go(x, y + 1)
        if x < n and y < m:
            total += go(x + 1, y + 1)
        return total

    return go(0, 0)


def test_delannoy_closed_values():
    assert delannoy_closed(0, 0) == 1
    assert delannoy_closed(1, 1) == 3
    assert delannoy_closed(2, 2) == 13


def test_delannoy_recursive_values():
    assert delannoy_recursive(0, 9) == 1
    assert delannoy_recursive(3, 1) == 7
    assert delannoy_recursive(4, 4) == 321


def test_delannoy_routes_agree():
    for n in range(13):
        for m in range(13):
            assert delannoy_closed(n, m) == delannoy_recursive(n, m)


def test_delannoy_matches_path_count():
    for n in range(7):
        for m in range(7):
            assert delannoy_closed(n, m) == _delannoy_paths(n, m)


def test_delannoy_symmetry():
    for n in range(13):
        for m in range(13):
            assert delannoy_closed(n, m) == delannoy_closed(m, n)


def test_delannoy_rejects_negative():
    with pytest.raises(ValueError):
        delannoy_closed(-1, 0)
    with pytest.raises(ValueError):
        delannoy_recursive(2, -3)


def test_triangle_small():
    assert tribonacci_triangle(2).rows == ((1,), (1, 1), (1, 3, 1))
    assert tribonacci_triangle(0).rows == ((1,),)
    assert tribonacci_triangle(4).rows[4] == (1, 7, 13, 7, 1)


def test_triangle_matches_printed_rows():
    triangle = tribonacci_triangle(9)
    assert triangle.rows == TRIANGLE_ROWS
    assert triangle.rows[9][4] == 681
    assert triangle.rows[8][4] == 321


def test_triangle_rows_are_palindromes_starting_with_one():
    for row in tribonacci_triangle(12).rows:
        assert row[0] == 1
        assert row == row[::-1]


def test_triangle_rejects_negative_depth():
    with pytest.raises(ValueError):
        tribonacci_triangle(-1)


def test_antidiagonal_values():
    assert antidiagonal(0) == [1]
    assert antidiagonal(2) == [1, 3, 1]
    assert antidiagonal(3) == [1, 5, 5, 1]


def test_antidiagonal_matches_triangle_rows():
    # the recurrence rows against the binomial sum behind the triangle
    triangle = tribonacci_triangle(60)
    for k in range(61):
        assert tuple(antidiagonal(k)) == triangle.rows[k]


def _forget_rows(memo):
    """Cut the kept anti-diagonals back to their two seed rows."""
    for s in range(2, len(memo)):
        del memo[s]


@pytest.fixture
def fresh_delannoy_memo():
    """The process-wide anti-diagonals, cut back to their seed rows and
    restored afterwards."""
    memo = combinatorics._DELANNOY_MEMO
    kept = dict(memo)
    _forget_rows(memo)
    yield memo
    memo.clear()
    memo.update(kept)


def _closed_row(k):
    return [delannoy_closed(k - i, i) for i in range(k + 1)]


def test_antidiagonal_in_any_order_matches_the_closed_form(fresh_delannoy_memo):
    descending = list(range(60, -1, -1))
    shuffled = list(range(61))
    random.Random(7).shuffle(shuffled)
    for order in (descending, shuffled):
        _forget_rows(fresh_delannoy_memo)
        for k in order:
            assert antidiagonal(k) == _closed_row(k)
        assert sorted(fresh_delannoy_memo) == list(range(61))


def test_antidiagonal_returns_a_fresh_list(fresh_delannoy_memo):
    row = antidiagonal(12)
    row[3] = -1
    row.append(0)
    assert antidiagonal(12) == _closed_row(12)
    assert antidiagonal(12) is not antidiagonal(12)
    assert antidiagonal(13) == _closed_row(13)


def test_antidiagonal_from_racing_threads(fresh_delannoy_memo):
    expected = {k: _closed_row(k) for k in range(201)}
    start = threading.Barrier(4)

    def ask(seed):
        rng = random.Random(seed)
        start.wait(timeout=60)
        return [k for k in (rng.randrange(201) for _ in range(20)) if antidiagonal(k) != expected[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # let the threads interleave inside the row loop
    try:
        for round_ in range(5):
            _forget_rows(fresh_delannoy_memo)
            with ThreadPoolExecutor(max_workers=4) as pool:
                wrong = list(pool.map(ask, range(4 * round_, 4 * round_ + 4), timeout=60))
            assert wrong == [[]] * 4
            assert all(list(row) == expected[s] for s, row in fresh_delannoy_memo.items())
    finally:
        sys.setswitchinterval(interval)


def test_vandermonde_values():
    assert vandermonde_variant(0, 0) == (1, 1)
    # direct summation of both sides: C(2a+m+1, m) = C(8,3) = 56
    assert vandermonde_variant(2, 3) == (56, 56)
    assert vandermonde_variant(4, 5) == (2002, 2002)


def test_vandermonde_identity_holds():
    for a in range(31):
        for m in range(31):
            lhs, rhs = vandermonde_variant(a, m)
            assert lhs == rhs


def _tilings_brute(n, j):
    # pieces of length 1 or 2 covering a 1 x n board, exactly j twos
    count = 0

    def rec(rem, twos):
        nonlocal count
        if rem == 0:
            if twos == j:
                count += 1
            return
        rec(rem - 1, twos)
        if rem >= 2:
            rec(rem - 2, twos + 1)

    rec(n, 0)
    return count


def test_domino_tilings_values():
    for n in range(9):
        assert domino_tilings(n, 0) == 1
    assert domino_tilings(5, 2) == 3
    assert domino_tilings(4, 2) == 1
    assert domino_tilings(3, 2) == 0


def test_domino_tilings_matches_brute_force():
    for n in range(15):
        for j in range(8):
            assert domino_tilings(n, j) == _tilings_brute(n, j)
