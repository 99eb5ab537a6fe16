"""Dense integer polynomials and rational generating functions.

A polynomial is a tuple of ints indexed by exponent, trimmed of trailing
zeros (the zero polynomial is the empty tuple). A rational generating
function num/den keeps its denominator normalized to constant term 1, so
its Taylor coefficients are exact integers; no rational arithmetic is ever
involved. When the denominator is exactly (1-t)^e, as for every per-width
series below, there are two paths to the coefficients. The whole prefix
(gf_coeffs) is e rounds of prefix sums over the numerator (division by 1-t
is a running sum); a single coefficient (gf_coeff) is one binomial sum,

    [t^n] num/(1-t)^e = sum_i num_i * C(n-i+e-1, e-1),

with no expansion. Any other denominator (only the width-summed S) goes
through the induced linear recurrence

    c_n = num_n - sum_{i>=1} den_i * c_{n-i}.

The constructors below record e as the series' pole order in place of a
denominator, so neither path builds (1-t)^e, and only equality, hash or
repr build it, through den; a RationalGF built by a caller records none,
and its denominator is compared with the rebuilt row exactly. The
constructors read the Delannoy anti-diagonals that combinatorics keeps.

Constructors are provided for every series the toolkit studies:

    dcc_width(k)   directed column-convex polyominoes with k columns, by area
    S_k(k)         directed plateau polycubes of width k, by lateral area
    S()            all directed plateau polycubes, by lateral area
    C(k)           column-convex polyominoes with k+1 columns, by area
    R(k)           plateau polycubes of width k, by lateral area
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from math import comb
from operator import mul

from .combinatorics import antidiagonal

Poly = tuple[int, ...]


def poly_trim(coeffs) -> Poly:
    """Canonical form: drop trailing zero coefficients. A tuple that is
    already canonical is returned as it is."""
    if type(coeffs) is tuple and (not coeffs or coeffs[-1] != 0):
        return coeffs
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(a, b) -> Poly:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_sub(a, b) -> Poly:
    return poly_add(a, tuple(-c for c in b))


def poly_mul(a, b) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_pow(a, e: int) -> Poly:
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    result: Poly = (1,)
    for _ in range(e):
        result = poly_mul(result, a)
    return result


def monomial(e: int) -> Poly:
    """t^e as a polynomial."""
    return (0,) * e + (1,)


def one_minus_t_pow(e: int) -> Poly:
    """(1 - t)^e, by the binomial theorem: coefficient i is (-1)^i C(e, i).

    The row is walked by the exact ratio c_(i+1) = -c_i (e-i)/(i+1), one
    small product and division per coefficient in place of a binomial each."""
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    row = [1]
    for i in range(e):
        row.append(-row[i] * (e - i) // (i + 1))
    return tuple(row)


@dataclass(frozen=True)
class RationalGF:
    """num/den with integer coefficients; den normalized to constant term 1.

    pole is e when den is known to be (1-t)^e, else None. Only the
    constructors below set it, and they keep no den: reading it builds
    one_minus_t_pow(pole), so equality, hash and repr are as for a caller's
    RationalGF, which has None and whose shape is checked exactly."""

    num: Poly
    den: Poly
    pole: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        num = poly_trim(self.num)
        den = poly_trim(self.den)
        if not den or den[0] == 0:
            raise ValueError("denominator must have a nonzero constant term")
        if den[0] < 0:
            num = tuple(-c for c in num)
            den = tuple(-c for c in den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __getattr__(self, name):
        if name == "den" and self.pole is not None:
            return one_minus_t_pow(self.pole)
        raise AttributeError(name)


ZERO_GF = RationalGF((), (1,))


def _over_one_minus_t(num, e: int) -> RationalGF:
    """num / (1-t)^e, with its pole order recorded and no denominator kept."""
    gf = object.__new__(RationalGF)
    object.__setattr__(gf, "num", poly_trim(num))
    object.__setattr__(gf, "pole", e)
    return gf


def _pole_order(gf: RationalGF) -> int | None:
    """e when gf's denominator is (1-t)^e, else None: the order a
    constructor recorded, or else an exact comparison with the rebuilt row."""
    if gf.pole is not None:
        return gf.pole
    e = len(gf.den) - 1
    return e if gf.den == one_minus_t_pow(e) else None


def gf_coeffs(gf: RationalGF, upto: int) -> list[int]:
    """First upto+1 Taylor coefficients of gf, as exact integers.

    A denominator equal to (1-t)^e (by its recorded pole order, or else by
    an exact check) gives e rounds of prefix sums over the
    numerator (cut or zero-padded to upto+1 terms); any other one gives the
    denominator recurrence, which requires the normalized denominator to
    have constant term exactly 1 (not merely nonzero).
    """
    if upto < 0:
        raise ValueError(f"upto must be >= 0, got {upto}")
    num, e = gf.num, _pole_order(gf)
    if e is not None:
        coeffs = list(num[: upto + 1]) + [0] * (upto + 1 - len(num))
        for _ in range(e):
            coeffs = list(accumulate(coeffs))
        return coeffs
    den = gf.den
    if den[0] != 1:
        raise ValueError(f"denominator constant term must be 1, got {den[0]}")
    coeffs = []
    for n in range(upto + 1):
        c = num[n] if n < len(num) else 0
        for i in range(1, min(n, len(den) - 1) + 1):
            c -= den[i] * coeffs[n - i]
        coeffs.append(c)
    return coeffs


def gf_coeff(gf: RationalGF, n: int) -> int:
    """Single Taylor coefficient [t^n] gf (0 for negative n).

    A denominator equal to (1-t)^e with e >= 1 (recognised as in
    gf_coeffs) gives one binomial sum,
    [t^n] num/(1-t)^e = sum_i num_i C(n-i+e-1, e-1), with no expansion:
    one binomial at the numerator's first nonzero index, then each next one
    by the exact ratio C(N-1, r) = C(N, r) (N-r)/N. Any other denominator
    is expanded by gf_coeffs, under its rules and errors."""
    if n < 0:
        return 0
    num, e = gf.num, _pole_order(gf)
    if not e:
        return gf_coeffs(gf, n)[n]
    top = min(n, len(num) - 1)
    first = next((i for i in range(top + 1) if num[i]), None)
    if first is None:
        return 0
    c = comb(n - first + e - 1, e - 1)
    total = num[first] * c
    for i in range(first + 1, top + 1):
        c = c * (n - i + 1) // (n - i + e)
        total += num[i] * c
    return total


def gf_dcc_width(k: int) -> RationalGF:
    """t^k / (1-t)^(2k-1): directed column-convex polyominoes with k columns,
    counted by area."""
    if k < 1:
        raise ValueError(f"width must be >= 1, got {k}")
    return _over_one_minus_t(monomial(k), 2 * k - 1)


def gf_S_k(k: int) -> RationalGF:
    """t^(2k) / (1-t)^(4k-2): directed plateau polycubes of width k, counted
    by lateral area. Width 0 is the zero series by convention."""
    if k < 0:
        raise ValueError(f"width must be >= 0, got {k}")
    if k == 0:
        return ZERO_GF
    return _over_one_minus_t(monomial(2 * k), 4 * k - 2)


def gf_S() -> RationalGF:
    """t^2 (1-t)^2 / ((1-t)^4 - t^2): all directed plateau polycubes, counted
    by lateral area (the width variable of the bivariate series set to 1)."""
    num = poly_mul(monomial(2), one_minus_t_pow(2))
    den = poly_sub(one_minus_t_pow(4), monomial(2))
    return RationalGF(num, den)


def gf_S_xt_coeff(k: int, n: int) -> int:
    """Coefficient of x^k t^n in the bivariate series
    x t^2 (1-t)^2 / ((1-t)^4 - x t^2).

    Expanding the geometric series in x, term k is
    t^(2k) (1-t)^2 / (1-t)^(4k); the t^n coefficient of that term is
    extracted directly (without cancelling the common (1-t)^2 factor,
    which keeps this an independent route to the width-k numbers).
    """
    if k < 1:
        raise ValueError(f"width must be >= 1, got {k}")
    term = _over_one_minus_t(poly_mul(monomial(2 * k), one_minus_t_pow(2)), 4 * k)
    return gf_coeff(term, n)


def gf_C(k: int) -> RationalGF:
    """p^(k+1) / (1-p)^(2k+1) * sum_{i=0..k} D(k-i, i) p^i: column-convex
    polyominoes with k+1 columns, counted by area.

    The numerator coefficients are the k-th anti-diagonal of the Delannoy
    array."""
    if k < 0:
        raise ValueError(f"index must be >= 0, got {k}")
    return _over_one_minus_t((0,) * (k + 1) + tuple(antidiagonal(k)), 2 * k + 1)


def gf_R(k: int) -> RationalGF:
    """C_(k-1)^2: plateau polycubes of width k, counted by lateral area.

    Its coefficients are the Cauchy self-convolution of the width-k
    column-convex counts. With C_(k-1) = t^k D(t) / (1-t)^(2k-1), D the
    (k-1)-th Delannoy anti-diagonal, the square is t^(2k) D(t)^2 /
    (1-t)^(4k-2): only D is squared, by its symmetry (_palindrome_square),
    and the denominator is the shared power of 1-t, not a product."""
    if k < 1:
        raise ValueError(f"width must be >= 1, got {k}")
    return _over_one_minus_t((0,) * (2 * k) + _palindrome_square(antidiagonal(k - 1)), 4 * k - 2)


def _palindrome_square(d: list[int]) -> Poly:
    """d(t)^2 for a palindrome d with nonzero ends (a Delannoy anti-diagonal,
    as D(j-i, i) = D(i, j-i)); its square is a palindrome too.

    Coefficient s is 2 * sum_{i < s-i} d_i d_(s-i), plus d_(s/2)^2 when s
    is even; only s <= len(d) - 1 is summed, about len(d)^2 / 4 products,
    and the rest is the mirror image."""
    top = len(d) - 1
    half = []
    for s in range(top + 1):
        pairs = 2 * sum(map(mul, d[: (s + 1) // 2], d[s : s // 2 : -1]))
        half.append(pairs + d[s // 2] ** 2 if s % 2 == 0 else pairs)
    return (*half, *reversed(half[:top]))
