"""Evaluations that the benchmark checks polylat's answers against.

Nothing here imports polylat. Every number comes from ``math.comb``, prefix
sums and convolutions written out in this file, so a defect in one of
polylat's routes cannot hide in its own reference.

Series used (width k, size variable t):

    dcc       t^k / (1-t)^(2k-1)
    cc        t^k * sum_i D(k-1-i, i) t^i / (1-t)^(2k-1)   (D = Delannoy)
    dplateau  the Cauchy square of the dcc column
    plateau   the Cauchy square of the cc column
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb

AREA_FAMILIES = ("dcc", "cc")


def delannoy(n: int, m: int) -> int:
    return sum(comb(m, j) * comb(n + m - j, m) for j in range(m + 1))


@lru_cache(maxsize=None)
def _cc_numerator(k: int) -> tuple[int, ...]:
    return tuple(delannoy(k - 1 - i, i) for i in range(k))


def dcc_cell(k: int, n: int) -> int:
    """Directed column-convex polyominoes, k columns, area n: [t^(n-k)] (1-t)^-(2k-1)."""
    return comb(n + k - 2, n - k) if n >= k else 0


def cc_cell(k: int, n: int) -> int:
    """Column-convex polyominoes, k columns, area n, as a binomial sum over the
    numerator: sum_i D(k-1-i, i) * C(n-k-i + 2k-2, 2k-2)."""
    return sum(
        d * comb(n - k - i + 2 * k - 2, 2 * k - 2)
        for i, d in enumerate(_cc_numerator(k))
        if n - k - i >= 0
    )


def cell(family: str, k: int, size: int) -> int:
    """One count of any family: dcc and cc directly, the 3D families as the
    convolution of their 2D column with itself at this size."""
    if family == "dcc":
        return dcc_cell(k, size)
    if family == "cc":
        return cc_cell(k, size)
    if family == "dplateau":
        return sum(dcc_cell(k, i) * dcc_cell(k, size - i) for i in range(k, size - k + 1))
    col = _column("cc", k, size)
    return sum(col[i] * col[size - i] for i in range(k, size - k + 1))


def _prefix_series(numerator, exponent: int, upto: int) -> list[int]:
    """Coefficients 0..upto of numerator / (1-t)^exponent, by `exponent`
    rounds of prefix sums."""
    coeffs = (list(numerator) + [0] * (upto + 1))[: upto + 1]
    for _ in range(exponent):
        coeffs = list(accumulate(coeffs))
    return coeffs


def _column(family: str, k: int, upto: int) -> list[int]:
    if family in ("dcc", "dplateau"):
        numerator = [0] * k + [1]
    else:
        numerator = [0] * k + list(_cc_numerator(k))
    return _prefix_series(numerator, 2 * k - 1, upto)


def _self_convolution(col: list[int], k: int) -> list[int]:
    """out[m] = sum_{i=k..m-k} col[i] * col[m-i]; col vanishes below k."""
    out = [0] * len(col)
    for m in range(2 * k, len(col)):
        out[m] = sum(col[i] * col[m - i] for i in range(k, m - k + 1))
    return out


def table_columns(family: str, k_max: int, size_max: int) -> dict[int, list[int]]:
    """Column k -> counts at sizes 0..size_max, for k = 1..k_max."""
    columns = {}
    for k in range(1, k_max + 1):
        col = _column(family, k, size_max)
        columns[k] = col if family in AREA_FAMILIES else _self_convolution(col, k)
    return columns


def table_csv(family: str, k_max: int, size_max: int, overrides=None) -> str:
    """The exact text of ``polylat table --format csv`` for these bounds.

    overrides: {(k, size): value} taking precedence over the evaluation here
    (used for the cells that the published table holds)."""
    overrides = overrides or {}
    columns = table_columns(family, k_max, size_max)
    size_min = 1 if family in AREA_FAMILIES else 2
    lines = [",".join(["size"] + [f"k={k}" for k in range(1, k_max + 1)])]
    for size in range(size_min, size_max + 1):
        row = [overrides.get((k, size), columns[k][size]) for k in range(1, k_max + 1)]
        lines.append(",".join(str(v) for v in [size] + row))
    return "\n".join(lines) + "\n"


def plateau_objects(k: int, m: int) -> int:
    """Plateau polycubes with k strata and lateral area m, counted by
    generating every sequence of strata (y, h, z, d) whose neighbours overlap
    in y and in z, the first stratum at y = z = 0."""

    def extend(strata: tuple, left: int, budget: int):
        if left == 0:
            yield strata
            return
        y, h, z, d = strata[-1]
        low = budget if left == 1 else 2
        for size in range(low, budget - 2 * (left - 1) + 1):
            for h2 in range(1, size):
                d2 = size - h2
                for y2 in range(y - h2 + 1, y + h):
                    for z2 in range(z - d2 + 1, z + d):
                        yield from extend(strata + ((y2, h2, z2, d2),), left - 1, budget - size)

    if m < 2 * k:
        return 0
    low = m if k == 1 else 2
    firsts = [((0, h, 0, size - h),) for size in range(low, m - 2 * (k - 1) + 1) for h in range(1, size)]
    return sum(1 for first in firsts for _ in extend(first, k - 1, m - first[0][1] - first[0][3]))
