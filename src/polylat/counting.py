"""Formula-based counters for the four enumerated families, and the one
registry of every family's counting routes.

Families and their size parameters:

    dcc       directed column-convex polyominoes, by area n
    cc        column-convex polyominoes, by area n
    dplateau  directed plateau polycubes, by lateral area m
    plateau   plateau polycubes, by lateral area m

ROUTES maps each family to its routes, each a counter(k, size): at least
two independent formula routes (closed form, convolution, generating
function), then the brute-force geometric route of the oracle module.
The first route is the family's authoritative one, the command line's default.
Out-of-support inputs return 0 rather than raising. Only structurally
meaningless arguments (width < 1, unknown family) raise.

Single counts read one width's series. count_cc and r_gf keep a
per-process cache of series and expanded prefixes, one dict per series
factory keyed by width, and answer a hit in their own body (one dict
lookup and one list index). Each query past a width's prefix is one ask:
a count_cc or r_gf miss, or an r_conv call, whose ask is its entry
count_cc. A width's first two asks past its prefix are one binomial sum
each, and only its third expands the series, through the largest size
asked (_cached_coeff). The cache keeps at most SERIES_CACHE_BITS bits,
evicting whole widths, the oldest stored first. r_conv reads the whole cc
column from the width's cached prefix, so it expands on its first call
without counting a second ask, and s_conv walks the dcc column by exact
binomial ratios, independent of s_closed; each convolution sums its column
against its own reverse.

The triple-binomial formula published for the column-convex counts
(alpha_lemma below) does not reproduce the published table of first values;
it is kept verbatim so the disagreement can be demonstrated, while the
generating-function route (count_cc) is the authority everywhere else.

Consecutive widths are tied by short recurrences (WIDTH_RECURRENCE). With
P = 1-t, the width-w series are

    dcc       A_w = t^w / P^(2w-1)
    dplateau  S_w = t^(2w) / P^(4w-2)
    cc        F_w = t^w N_(w-1) / P^(2w-1), N_j the j-th Delannoy anti-diagonal
    plateau   G_w = F_w^2, the squares of the cc series

so A_(w+1) = t/P^2 A_w and S_(w+1) = t^2/P^4 S_w. The anti-diagonals obey
N_(j+1) = (1+t) N_j + t N_(j-1), with N_0 = 1 and N_(-1) = 0; taken at
j = w-1 and multiplied by t^(w+1)/P^(2w+1), this gives

    F_(w+1) = a F_w + b F_(w-1),   a = t(1+t)/P^2,  b = t^3/P^4.

If x, y are the roots of z^2 = a z + b (x + y = a, xy = -b), each F_w is
a combination of x^w and y^w, so G_w is one of x^(2w), (xy)^w and y^(2w).
Their ratios x^2, xy, y^2 have elementary symmetric functions

    e1 = x^2 + xy + y^2         = a^2 + b      =  t^2 (1+3t+t^2) / P^4
    e2 = xy (x^2 + xy + y^2)    = -a^2 b - b^2 = -t^5 (1+3t+t^2) / P^8
    e3 = (xy)^3                 = -b^3         = -t^9 / P^12

and G_(w+1) = e1 G_w - e2 G_(w-1) + e3 G_(w-2). (The identity holds for
any sequence with the order-2 recurrence, repeated roots included: it is
a polynomial identity in F_(w-2), F_(w-1), a and b.)

Taking every series below width 1 as zero, each width-w series is
num_w / P^E + sum_j mult_j / P^(e_j) * (width w-1-j series): the recurrence
above, E its largest power of P, and num_w = t P, t P^3, t^2 P^2 at width 1
(dcc, cc, dplateau), t^2 P^10, -t^5 P^6 at widths 1, 2 (plateau), 0 after.
These num_w are the numerators of the bivariate series sum_w q^w (width w).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, count
from math import comb
from operator import add, mul
from typing import Callable

from .combinatorics import binomial
from .gfseries import Poly, RationalGF, gf_C, gf_R, gf_S_k, gf_coeff, gf_coeffs, gf_dcc_width, one_minus_t_pow, poly_mul
from .oracle import _RULES, enum_cc, enum_dcc, enum_dplateau, enum_plateau


def _check_width(k: int) -> None:
    if k < 1:
        raise ValueError(f"width must be >= 1, got {k}")


def count_dcc(k: int, n: int) -> int:
    """Directed column-convex polyominoes with k columns and area n:
    C(n+k-2, n-k). Zero when n < k."""
    if k < 1:
        _check_width(k)
    return comb(n + k - 2, n - k) if n >= k else 0


def s_conv(k: int, n: int) -> int:
    """Directed plateau polycubes of width k and lateral area n, by the
    convolution over the two projection areas:
    sum_{i=k..n-k} C(i+k-2, i-k) * C(n-i+k-2, n-i-k).

    The dcc column count_dcc(k, k+j) = C(j+2k-2, j), j = 0..n-2k, is built
    once by the exact ratio c_j = c_(j-1) (j+2k-2) / j and convolved with
    its reverse. Zero when n < 2k."""
    _check_width(k)
    if n < 2 * k:
        return 0
    col = [1]
    for j in range(1, n - 2 * k + 1):
        col.append(col[-1] * (j + 2 * k - 2) // j)
    return sum(map(mul, col, reversed(col)))


def s_closed(k: int, n: int) -> int:
    """Directed plateau polycubes of width k and lateral area n, closed form:
    C(n+2k-3, n-2k). Zero when n < 2k."""
    if k < 1:
        _check_width(k)
    return comb(n + 2 * k - 3, n - 2 * k) if n >= 2 * k else 0


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


# The series cache, one dict per series factory: width k -> (expanded prefix,
# series gf_C(k-1) or gf_R(k), asks past the prefix counted up to two, largest
# size asked, bits kept, store order). Its bound on the bits of numerators and
# prefixes is 1.5 times the 66.4 million that asympt --family plateau --offset
# 196 keeps.
SERIES_CACHE_BITS = 100_000_000
_SERIES_CACHE = _CC_SERIES, _R_SERIES = {}, {}
_STORES = count()


def _keep(cache: dict[int, tuple], k: int, entry: tuple) -> None:
    """Store width k's entry, then evict other widths, the oldest stored
    first, while the cache keeps more than SERIES_CACHE_BITS."""
    cache[k] = entry
    excess = sum(e[4] for c in _SERIES_CACHE for e in tuple(c.values())) - SERIES_CACHE_BITS
    if excess > 0:
        for _, bits, c, w in sorted((e[5], e[4], c, w) for c in _SERIES_CACHE for w, e in tuple(c.items())):
            if excess > 0 and (c is not cache or w != k):
                c.pop(w, None)
                excess -= bits


def _cached_prefix(cache: dict[int, tuple], k: int, n: int) -> list[int]:
    """The cached prefix of a width in the cache, expanded through at least
    term n; an expansion runs through the largest of n, the largest size
    asked, twice the expanded length and 32. It counts no ask: the query
    that reads the prefix (_cached_coeff's or r_conv's) has counted its own."""
    prefix, gf, asks, largest, bits, order = cache[k]
    if n >= len(prefix):
        largest = max(largest, n)
        prefix = gf_coeffs(gf, max(largest, 2 * len(prefix), 32))
        bits = sum(map(int.bit_length, chain(gf.num, prefix)))
        _keep(cache, k, (prefix, gf, asks, largest, bits, order))
    return prefix


def _cached_coeff(cache: dict[int, tuple], k: int, n: int, factory: Callable[[int], RationalGF], index: int) -> int:
    """Coefficient [t^n] of width k's series factory(index) on a cache miss;
    count_cc and r_gf answer a hit (n within the expanded prefix) in their
    own body. Each miss is one ask, and this is the one place asks are
    counted (up to two, all the rule reads). A width's first two asks past
    the prefix build its series once, keep it and answer by one binomial
    sum each (gf_coeff): a sum costs about one term per numerator
    coefficient, an expansion e rounds over every term up to n. The third
    expands the series through the largest size asked so far, and later
    misses grow it by _cached_prefix's rule. A store past SERIES_CACHE_BITS
    evicts whole widths, the oldest stored first, never the one being
    served; a hit records nothing. Every entry written holds exact values,
    so concurrent use is safe: a race can only lose an ask or a prefix,
    never a value."""
    entry = cache.get(k)
    if entry is None:
        gf = factory(index)
        _keep(cache, k, ([], gf, 1, n, sum(map(int.bit_length, gf.num)), next(_STORES)))
        return gf_coeff(gf, n)
    prefix, gf, asks, largest, bits, order = entry
    if asks < 2:
        cache[k] = (prefix, gf, asks + 1, max(largest, n), bits, order)
        return gf_coeff(gf, n)
    return _cached_prefix(cache, k, n)[n]


def count_cc(k: int, n: int) -> int:
    """Column-convex polyominoes with k columns and area n, from the cached
    width-indexed generating function (the authoritative route; see
    _cached_coeff). Zero when n < k, without building the series."""
    entry = _CC_SERIES.get(k)
    if entry is not None and 0 <= n < len(entry[0]):
        return entry[0][n]
    _check_width(k)
    return _cached_coeff(_CC_SERIES, k, n, gf_C, k - 1) if n >= k else 0


def r_conv(k: int, m: int) -> int:
    """Plateau polycubes of width k and lateral area m, by the convolution
    over the two projection areas: sum_{i=k..m-k} cc(k,i) * cc(k,m-i).

    count_cc(k, m-k) enters the width's series in the cache (or finds it
    there) and is the call's one ask; the column cc(k, k..m-k) is then read
    once from its cached prefix, expanded through m-k if shorter without
    counting another ask, and convolved with its reverse. So after a cold
    width's first r_conv the next single miss is its second ask, a binomial
    sum. Zero when m < 2k, without building the series."""
    _check_width(k)
    if m < 2 * k:
        return 0
    count_cc(k, m - k)  # the cache's one entry point for a cc width
    col = _cached_prefix(_CC_SERIES, k, m - k)[k : m - k + 1]
    return sum(map(mul, col, reversed(col)))


def r_gf(k: int, m: int) -> int:
    """Plateau polycubes of width k and lateral area m, as the p^m
    coefficient of the cached squared column-convex generating function
    (see _cached_coeff). Zero when m < 2k, without building the series."""
    entry = _R_SERIES.get(k)
    if entry is not None and 0 <= m < len(entry[0]):
        return entry[0][m]
    _check_width(k)
    return _cached_coeff(_R_SERIES, k, m, gf_R, k) if m >= 2 * k else 0


@dataclass
class FamilyTable:
    """Counts of one family indexed by (width k, size): columns[k-1][size]
    for sizes 0..size_max, zero outside the family's support and outside
    the rectangle."""

    family: str
    k_max: int
    size_max: int
    columns: list[list[int]]

    @property
    def size_min(self) -> int:
        return SIZE_UNIT[self.family]

    def value(self, k: int, size: int) -> int:
        if 1 <= k <= self.k_max and 0 <= size <= self.size_max:
            return self.columns[k - 1][size]
        return 0

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
# a slice's size is the sum of its extents, one >= 1 per axis, so it is the
# number of axes of the oracle's slice rules: a column has area >= 1, a
# stratum lateral area (height + depth) >= 2.
SIZE_UNIT = {family: a for family, (a, _) in _RULES.items()}

# Each family's width recurrence, the (mult_j, e_j) for j = 0, 1, ... with
# e_j never decreasing, and its numerators num_w (see the module docstring).
WIDTH_RECURRENCE: dict[str, tuple[tuple[tuple[Poly, int], ...], tuple[Poly, ...]]] = {
    "dcc": ((((0, 1), 2),), (poly_mul((0, 1), one_minus_t_pow(1)),)),  # t/P^2
    "cc": ((((0, 1, 1), 2), ((0, 0, 0, 1), 4)), (poly_mul((0, 1), one_minus_t_pow(3)),)),  # a = t(1+t)/P^2, b = t^3/P^4
    "dplateau": ((((0, 0, 1), 4),), (poly_mul((0, 0, 1), one_minus_t_pow(2)),)),  # t^2/P^4
    "plateau": (  # e1 = t^2(1+3t+t^2)/P^4, -e2 = t^5(1+3t+t^2)/P^8, e3 = -t^9/P^12
        (((0, 0, 1, 3, 1), 4), ((0, 0, 0, 0, 0, 1, 3, 1), 8), ((0,) * 9 + (-1,), 12)),
        (poly_mul((0, 0, 1), one_minus_t_pow(10)), poly_mul((0,) * 5 + (-1,), one_minus_t_pow(6))),
    ),
}

ROUTES = {
    "dcc": {"closed": count_dcc, "gf": _dcc_gf, "oracle": enum_dcc},
    "cc": {"gf": count_cc, "oracle": enum_cc},
    "dplateau": {"closed": s_closed, "conv": s_conv, "gf": _dplateau_gf, "oracle": enum_dplateau},
    "plateau": {"gf": r_gf, "conv": r_conv, "oracle": enum_plateau},
}
FAMILIES = tuple(ROUTES)


def _next_width(
    recurrence: tuple[tuple[Poly, int], ...], numerator: Poly, columns: list[list[int]], size: int
) -> list[int]:
    """The next width's first size terms, from its numerator and the last
    len(recurrence) columns (none below width 1) in Horner form: add mult_j
    times its column, innermost term first, then divide by (1-t)^(e_j -
    e_(j-1)) as that many prefix-sum rounds, E in all; truncation is exact."""
    column = list(numerator[:size]) + [0] * (size - len(numerator))
    for j in reversed(range(len(recurrence))):
        mult, e = recurrence[j]
        source = columns[-1 - j] if j < len(columns) else ()
        for i, c in enumerate(mult):
            if c and source:
                column[i:] = map(add, column[i:], source if c == 1 else [c * x for x in source])
        for _ in range(e - (recurrence[j - 1][1] if j else 0)):
            column = list(accumulate(column))
    return column


def build_table(family: str, k_max: int, size_max: int) -> FamilyTable:
    """Populate a FamilyTable, one column per width, each from its numerator
    and the columns before it by the width recurrence: O(size_max) exact
    integer operations per width, with no counting route and no series read."""
    if family not in ROUTES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if k_max < 1 or size_max < 1:
        raise ValueError(f"bounds must be >= 1, got k_max={k_max}, size_max={size_max}")
    recurrence, nums = WIDTH_RECURRENCE[family]
    columns: list[list[int]] = []
    for k in range(1, k_max + 1):
        columns.append(_next_width(recurrence, nums[k - 1] if k <= len(nums) else (), columns, size_max + 1))
    return FamilyTable(family, k_max, size_max, columns)
