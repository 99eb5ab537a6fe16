"""Exact polynomial fits of the near-minimal-size counts.

For fixed offset i, the column-convex count at area k+i and the plateau
count at lateral area 2k+i (size SIZE_UNIT[family]*k + i) are each
polynomial in the width k, of degree i, once k is large enough; their
published polynomials and leading coefficients are in reference_tables.
This module realizes those claims at desk scale: it interpolates exact
table values with rational Newton divided differences (never least
squares - any residual must surface, not be averaged away), checks the
consistency of surplus sample points, and compares fits against the
published polynomials.

Every published polynomial holds from k = published_min_k and all sampling
starts there. (The general plateau degree claim is printed for k >= offset,
but the polynomial provably fails at k = offset: the width-2 count at
lateral area 6 is 34 while the offset-2 polynomial gives 36. Sampling from
k = offset therefore raises FitError, which is the honest outcome.)
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import factorial

from .counting import ROUTES, SIZE_UNIT
from .reference_tables import COROLLARY_OFFSETS, FITTED_FAMILIES, LEADING_BASE
from .reference_tables import check_fitted_family, published_min_k, published_polynomial

# Samples beyond the offset + 2 of an over-determined degree-offset fit, in
# fit_published and in the asympt command's default width range.
SURPLUS_POINTS = 5


class FitError(ValueError):
    """Sample points are inconsistent with the requested polynomial degree.

    Carries the offending points as .residuals: a list of
    (k, sampled value, value predicted by the degree-bounded fit).
    """

    def __init__(self, message: str, residuals):
        super().__init__(message)
        self.residuals = list(residuals)


@dataclass(frozen=True)
class RatPoly:
    """Polynomial with exact rational coefficients, ascending by degree.

    Canonical form trims trailing zeros; the zero polynomial has no
    coefficients and degree -1.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        coeffs = [Fraction(c) for c in self.coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * Fraction(x) + c
        return acc

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(poly: RatPoly) -> str:
    """Human form, descending powers: '8k^2 - 19k + 16'. Fractional
    coefficients are parenthesized: '(32/3)k^3'."""
    if not poly.coeffs:
        return "0"
    parts: list[str] = []
    for d in range(poly.degree, -1, -1):
        c = poly.coeffs[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if mag.denominator == 1:
            coeff = str(mag.numerator)
        else:
            coeff = f"({mag})"
        if d == 0:
            term = coeff
        else:
            var_part = "k" if d == 1 else f"k^{d}"
            term = var_part if coeff == "1" else f"{coeff}{var_part}"
        if not parts:
            parts.append(term if sign == "+" else f"-{term}")
        else:
            parts.append(f"{sign} {term}")
    return " ".join(parts)


def interpolate(values, degree: int) -> RatPoly:
    """The unique polynomial of degree <= degree through the first degree+1
    points, by exact Newton divided differences; any surplus points must lie
    on it exactly or FitError is raised.

    values: sequence of (k, value) pairs with distinct k.
    """
    points = [(Fraction(k), Fraction(v)) for k, v in values]
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if len(points) < degree + 1:
        raise ValueError(f"need at least {degree + 1} points for degree {degree}, got {len(points)}")
    if len({k for k, _ in points}) != len(points):
        raise ValueError("sample points must have distinct k")

    base = points[: degree + 1]
    xs = [k for k, _ in base]
    dd = [v for _, v in base]
    for j in range(1, len(base)):
        for i in range(len(base) - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])

    # expand the Newton form into monomial coefficients
    coeffs = [Fraction(0)] * len(base)
    basis = [Fraction(1)]  # product (x - xs[0]) ... (x - xs[j-1])
    for j, c in enumerate(dd):
        for deg, b in enumerate(basis):
            coeffs[deg] += c * b
        nxt = [Fraction(0)] * (len(basis) + 1)
        for deg, b in enumerate(basis):
            nxt[deg] -= xs[j] * b
            nxt[deg + 1] += b
        basis = nxt
    poly = RatPoly(tuple(coeffs))

    residuals = [(k, v, poly(k)) for k, v in points[degree + 1 :] if poly(k) != v]
    if residuals:
        raise FitError(
            f"{len(residuals)} extra point(s) are inconsistent with degree {degree}: "
            + ", ".join(f"k={k}: sampled {v}, fit gives {p}" for k, v, p in residuals),
            residuals,
        )
    return poly


def sample_value(family: str, offset: int, k: int) -> int:
    """Regenerated table value at width k: the family's authoritative count
    at size SIZE_UNIT[family]*k + offset (area k+offset for column-convex,
    lateral area 2k+offset for plateau)."""
    counter = next(iter(ROUTES[check_fitted_family(family)].values()))
    return counter(k, SIZE_UNIT[family] * k + offset)


def fit_family(family: str, offset: int, k_min: int, k_count: int) -> RatPoly:
    """Fit the family's offset polynomial in k from regenerated table values
    at k = k_min .. k_min + k_count - 1.

    k_count must be at least offset + 2 so the fit is over-determined; the
    surplus points make a silent wrong fit impossible. Raises FitError when
    the samples are not a degree-offset polynomial (which happens when
    sampling starts below published_min_k)."""
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if k_min < 1:
        raise ValueError(f"k_min must be >= 1, got {k_min}")
    if k_count < offset + 2:
        raise ValueError(f"need k_count >= {offset + 2} for an over-determined degree-{offset} fit")
    samples = [(k, sample_value(family, offset, k)) for k in range(k_min, k_min + k_count)]
    return interpolate(samples, offset)


def leading_coeff_expected(family: str, offset: int) -> Fraction:
    """Expected leading coefficient: LEADING_BASE[family]^offset/offset!
    (4^offset/offset! for column-convex, 8^offset/offset! for plateau)."""
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    return Fraction(LEADING_BASE[check_fitted_family(family)] ** offset, factorial(offset))


def fit_published(family: str, offset: int) -> RatPoly:
    """Fit from the published minimal k with offset+2+SURPLUS_POINTS samples."""
    k_min = published_min_k(family, offset)
    return fit_family(family, offset, k_min, offset + 2 + SURPLUS_POINTS)


def verify_corollaries(max_offset: int = COROLLARY_OFFSETS[-1]) -> list[dict]:
    """Compare fitted polynomials against every published polynomial of
    COROLLARY_OFFSETS up to max_offset, coefficient by coefficient.

    Returns one record per (family, offset) with the per-degree comparison;
    mismatches are report content, not exceptions. Each record restates
    that plateau sizes are read as 2k+offset (the published corollary
    subscripts say k+offset), as confirmed by offset 3, k=4 -> 2152."""
    if max_offset not in COROLLARY_OFFSETS:
        raise ValueError(f"max_offset must be in {COROLLARY_OFFSETS[0]}..{COROLLARY_OFFSETS[-1]}, got {max_offset}")
    records = []
    for family in FITTED_FAMILIES:
        unit = SIZE_UNIT[family]
        for offset in COROLLARY_OFFSETS[: COROLLARY_OFFSETS.index(max_offset) + 1]:
            fitted = fit_published(family, offset)
            printed = published_polynomial(family, offset)
            comparison = [
                {"degree": d, "fitted": str(fit_c), "published": str(pub_c), "match": fit_c == pub_c}
                for d, (fit_c, pub_c) in enumerate(zip_longest(fitted.coeffs, printed, fillvalue=Fraction(0)))
            ]
            records.append(
                {
                    "family": family,
                    "offset": offset,
                    "size_parameter": f"{unit if unit > 1 else ''}k+{offset}",
                    "k_min": published_min_k(family, offset),
                    "fitted": format_poly(fitted),
                    "coefficients": comparison,
                    "all_match": all(c["match"] for c in comparison),
                }
            )
    return records
