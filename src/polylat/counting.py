"""Formula-based counters for the four enumerated families, and the one
registry of every family's counting routes.

Families and their size parameters:

    dcc       directed column-convex polyominoes, by area n
    cc        column-convex polyominoes, by area n
    dplateau  directed plateau polycubes, by lateral area m
    plateau   plateau polycubes, by lateral area m

ROUTES maps each family to its routes, each a counter(k, size): at least
two independent formula routes (closed form, convolution, generating
function), then the brute-force geometric route of the oracle module,
which also takes workers=. The first route is the family's authoritative
one, used by build_table and by default on the command line.
Out-of-support inputs return 0 rather than raising, because the
convolutions range freely and rely on vanishing terms. Only structurally
meaningless arguments (width < 1, unknown family) raise.

The triple-binomial formula published for the column-convex counts
(alpha_lemma below) does not reproduce the published table of first values;
it is kept verbatim so the disagreement can be demonstrated, while the
generating-function route (count_cc) is the authority everywhere else.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .combinatorics import binomial
from .gfseries import RationalGF, gf_C, gf_R, gf_S_k, gf_coeff, gf_coeffs, gf_dcc_width
from .oracle import enum_cc, enum_dcc, enum_dplateau, enum_plateau


def _check_width(k: int) -> int:
    if k < 1:
        raise ValueError(f"width must be >= 1, got {k}")
    return k


def count_dcc(k: int, n: int) -> int:
    """Directed column-convex polyominoes with k columns and area n:
    C(n+k-2, n-k). Zero when n < k."""
    _check_width(k)
    return binomial(n + k - 2, n - k)


def s_conv(k: int, n: int) -> int:
    """Directed plateau polycubes of width k and lateral area n, by the
    convolution over the two projection areas:
    sum_{i=k..n-k} C(i+k-2, i-k) * C(n-i+k-2, n-i-k)."""
    _check_width(k)
    return sum(count_dcc(k, i) * count_dcc(k, n - i) for i in range(k, n - k + 1))


def s_closed(k: int, n: int) -> int:
    """Directed plateau polycubes of width k and lateral area n, closed form:
    C(n+2k-3, n-2k). Zero when n < 2k."""
    _check_width(k)
    return binomial(n + 2 * k - 3, n - 2 * k)


def alpha_lemma(k: int, u: int) -> int:
    """The published triple-binomial expression for column-convex polyominoes
    with k columns and area u, evaluated verbatim:

        sum_{i,j>=0} C(k-i-1, i) * C(2k-j-2, j) * C(k-2i-1, u-k-i-j)

    This is NOT the authoritative count: it disagrees with the published
    table of first values (already at k=2, u=3 it gives 2 where the table,
    the generating function and the geometric enumeration all give 4). Use
    count_cc for real counting; this function exists to document the
    disagreement."""
    _check_width(k)
    # C(k-i-1, i) vanishes for i >= k and C(2k-j-2, j) for j >= 2k-1
    return sum(
        binomial(k - i - 1, i) * binomial(2 * k - j - 2, j) * binomial(k - 2 * i - 1, u - k - i - j)
        for i in range(k)
        for j in range(2 * k - 1)
    )


# (series factory, width) -> (series, size of its first query, expanded prefix)
_SERIES_CACHE: dict[tuple[Callable[[int], RationalGF], int], tuple[RationalGF, int, list[int]]] = {}


def _cached_coeff(k: int, gf_factory: Callable[[int], RationalGF], n: int) -> int:
    """Coefficient [t^n] of a per-width series, cached per process.

    A width's first query builds its series once, keeps it in the cache
    entry and answers with one binomial sum (gf_coeff), expanding nothing.
    A later query within the expanded prefix is a list index. Any other
    query expands the kept series from term 0 to the largest of n, the
    first query's size, twice the expanded length and 32. So a width asked
    for sizes in increasing order expands about log2(n) times; asked for its
    largest size first (as build_table does), it expands once, at its
    second query. Recomputation on extension is idempotent, so concurrent
    use is safe."""
    entry = _SERIES_CACHE.get((gf_factory, k))
    if entry is None:
        gf = gf_factory(k)
        _SERIES_CACHE[(gf_factory, k)] = (gf, n, [])
        return gf_coeff(gf, n)
    gf, first, coeffs = entry
    if n >= len(coeffs):
        coeffs = gf_coeffs(gf, max(n, first, 2 * len(coeffs), 32))
        _SERIES_CACHE[(gf_factory, k)] = (gf, first, coeffs)
    return coeffs[n]


def count_cc(k: int, n: int) -> int:
    """Column-convex polyominoes with k columns and area n, from the
    width-indexed generating function (the authoritative route): a
    width's first query is one binomial sum, later ones read its cached
    expansion. Zero when n < k, without building the series."""
    _check_width(k)
    return _cached_coeff(k - 1, gf_C, n) if n >= k else 0


def r_conv(k: int, m: int) -> int:
    """Plateau polycubes of width k and lateral area m, by the convolution
    over the two projection areas: sum_{i=k..m-k} cc(k,i) * cc(k,m-i)."""
    _check_width(k)
    return sum(count_cc(k, i) * count_cc(k, m - i) for i in range(k, m - k + 1))


def r_gf(k: int, m: int) -> int:
    """Plateau polycubes of width k and lateral area m, as the p^m
    coefficient of the squared column-convex generating function: a
    width's first query is one binomial sum, later ones read its cached
    expansion. Zero when m < 2k, without building the series."""
    _check_width(k)
    return _cached_coeff(k, gf_R, m) if m >= 2 * k else 0


@dataclass
class FamilyTable:
    """Counts of one family indexed by (width k, size): a full rectangle of
    values, zero outside the family's support."""

    family: str
    k_max: int
    size_max: int
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def size_min(self) -> int:
        return SIZE_UNIT[self.family]

    def value(self, k: int, size: int) -> int:
        return self.entries.get((k, size), 0)

    def sizes(self) -> range:
        return range(self.size_min, self.size_max + 1)

    def row(self, size: int) -> list[int]:
        return [self.value(k, size) for k in range(1, self.k_max + 1)]


def _dcc_gf(k: int, n: int) -> int:
    return gf_coeff(gf_dcc_width(k), n)


def _dplateau_gf(k: int, m: int) -> int:
    _check_width(k)
    return gf_coeff(gf_S_k(k), m)


# The least size of one slice, so a width-k object has size >= SIZE_UNIT * k:
# a column has area >= 1, a stratum lateral area (height + depth) >= 2.
SIZE_UNIT = {"dcc": 1, "cc": 1, "dplateau": 2, "plateau": 2}

ROUTES = {
    "dcc": {"closed": count_dcc, "gf": _dcc_gf, "oracle": enum_dcc},
    "cc": {"gf": count_cc, "oracle": enum_cc},
    "dplateau": {"closed": s_closed, "conv": s_conv, "gf": _dplateau_gf, "oracle": enum_dplateau},
    "plateau": {"gf": r_gf, "conv": r_conv, "oracle": enum_plateau},
}
FAMILIES = tuple(ROUTES)


def build_table(family: str, k_max: int, size_max: int) -> FamilyTable:
    """Populate a FamilyTable with the family's authoritative route, the
    first in ROUTES (dcc: closed form; cc: generating function; dplateau:
    closed form; plateau: generating function). Each width is filled from
    its largest size down, so a cached series expands once per width.
    Deterministic regardless of evaluation order, since every cell is a
    pure function of (k, size)."""
    if family not in ROUTES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if k_max < 1 or size_max < 1:
        raise ValueError(f"bounds must be >= 1, got k_max={k_max}, size_max={size_max}")
    counter = next(iter(ROUTES[family].values()))
    table = FamilyTable(family, k_max, size_max)
    for k in range(1, k_max + 1):
        for size in reversed(table.sizes()):
            table.entries[(k, size)] = counter(k, size)
    return table
