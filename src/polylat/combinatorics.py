"""Exact integer combinatorics: binomials, Delannoy numbers, tiling counts.

Everything here returns plain Python ints, so there is no overflow at any
input size the toolkit uses. Delannoy numbers are provided through two
independent routes (a binomial sum and the three-term recurrence) so that
each can check the other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


def binomial(n: int, k: int) -> int:
    """C(n, k) = n!/(k!(n-k)!) for 0 <= k <= n, and 0 otherwise.

    Out-of-range arguments (including negative n or k) give 0, so sums of
    binomial products may range freely and rely on vanishing terms.
    """
    if 0 <= k <= n:
        return math.comb(n, k)
    return 0


def delannoy_closed(n: int, m: int) -> int:
    """Delannoy number D(n, m) via the binomial sum.

    D(n, m) counts lattice paths from (0,0) to (n,m) made of North, East
    and North-East unit steps, and equals sum_k C(m,k) * C(n+m-k, m).
    """
    if n < 0 or m < 0:
        raise ValueError(f"Delannoy arguments must be >= 0, got ({n}, {m})")
    return sum(binomial(m, k) * binomial(n + m - k, m) for k in range(m + 1))


def delannoy_recursive(n: int, m: int) -> int:
    """Delannoy number D(n, m) via the recurrence
    D(n,m) = D(n-1,m) + D(n,m-1) + D(n-1,m-1) with D(0,m) = D(n,0) = 1,
    read off the anti-diagonal n + m (see antidiagonal).

    The first call that reaches anti-diagonal n + m costs O((n+m)^2)
    big-integer additions; later calls copy the kept row.
    """
    if n < 0 or m < 0:
        raise ValueError(f"Delannoy arguments must be >= 0, got ({n}, {m})")
    return antidiagonal(n + m)[m]


@dataclass(frozen=True)
class TriangleTable:
    """Triangular array with rows[s][t] = D(s-t, t); rows are palindromes."""

    rows: tuple[tuple[int, ...], ...]


def tribonacci_triangle(depth: int) -> TriangleTable:
    """Rows 0..depth of the triangle whose entry (s, t) is D(s-t, t).

    Row sums follow the tribonacci recurrence; each anti-diagonal of the
    Delannoy array appears here as a row.
    """
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    rows = tuple(
        tuple(delannoy_closed(s - t, t) for t in range(s + 1)) for s in range(depth + 1)
    )
    return TriangleTable(rows)


# Delannoy anti-diagonals built so far in this process, by index. A row is
# written only at its own index, and only after the row before it, so the
# keys are always 0..len-1; writers that race compute the same row, and
# setdefault keeps whichever came first.
_DELANNOY_MEMO: dict[int, tuple[int, ...]] = {0: (1,), 1: (1, 1)}


def antidiagonal(k: int) -> list[int]:
    """The k-th anti-diagonal of the Delannoy array: [D(k-i, i) for i=0..k].

    These are the numerator coefficients of the width-indexed generating
    functions for column-convex polyominoes. Each row is built once per
    process, from the two rows before it by the Delannoy recurrence (O(k)
    big-integer additions), independent of the binomial sum in
    delannoy_closed, and kept in _DELANNOY_MEMO; every call returns a fresh
    list, so callers may mutate it.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    memo = _DELANNOY_MEMO
    if k not in memo:
        # row[t] = D(s-t, t) on anti-diagonal s; the recurrence links its
        # inner entries to row s-1 (D(s-t-1, t), D(s-t, t-1)) and row s-2
        # (D(s-t-1, t-1))
        start = len(memo)
        before, row = memo[start - 2], memo[start - 1]
        for s in range(start, k + 1):
            inner = (row[t - 1] + row[t] + before[t - 1] for t in range(1, s))
            before, row = row, memo.setdefault(s, (1, *inner, 1))
    return list(memo[k])


def vandermonde_variant(a: int, m: int) -> tuple[int, int]:
    """Both sides of the convolution identity
    sum_{j=0..m} C(j+a, j) * C(a+m-j, m-j) = C(2a+m+1, m).

    Returns (lhs, rhs) computed independently; callers assert equality.
    """
    if a < 0 or m < 0:
        raise ValueError(f"arguments must be >= 0, got ({a}, {m})")
    lhs = sum(binomial(j + a, j) * binomial(a + m - j, m - j) for j in range(m + 1))
    rhs = binomial(2 * a + m + 1, m)
    return lhs, rhs


def domino_tilings(n: int, j: int) -> int:
    """Number of tilings of a 1 x n board with exactly j dominoes
    (and n - 2j squares): C(n-j, j), which is 0 when j > n // 2.
    """
    return binomial(n - j, j)
