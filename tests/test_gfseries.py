"""Polynomial arithmetic and generating-function coefficient extraction,
cross-checked against naive truncated long division."""
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polylat.combinatorics import antidiagonal
from polylat.counting import count_dcc, s_closed
from polylat.gfseries import (
    RationalGF,
    _palindrome_square,
    gf_C,
    gf_R,
    gf_S,
    gf_S_k,
    gf_S_xt_coeff,
    gf_coeff,
    gf_coeffs,
    gf_dcc_width,
    monomial,
    one_minus_t_pow,
    poly_add,
    poly_mul,
    poly_pow,
    poly_sub,
    poly_trim,
)


def test_poly_trim_canonical():
    assert poly_trim([1, 2, 0, 0]) == (1, 2)
    assert poly_trim([0, 0]) == ()
    assert poly_trim([]) == ()
    assert poly_trim((1, 2, 0, 0)) == (1, 2)
    assert poly_trim((0,)) == ()
    assert type(poly_trim([3])) is tuple
    # a tuple already in canonical form comes back as the same object
    for canonical in ((1, 2), (0, 0, 5), (-1,), ()):
        assert poly_trim(canonical) is canonical


def test_poly_add():
    one_plus_t = (1, 1)
    assert poly_add(one_plus_t, ()) == (1, 1)
    assert poly_add(one_plus_t, (-1, -1)) == ()
    assert poly_add((1, 2), (0, 3, 1)) == (1, 5, 1)


def test_poly_mul():
    anything = (3, 0, -2, 7)
    assert poly_mul(anything, (1,)) == anything
    assert poly_mul((1, -1), (1, 1)) == (1, 0, -1)
    sq = poly_mul(one_minus_t_pow(2), one_minus_t_pow(2))
    assert sq == (1, -4, 6, -4, 1)
    assert sq == one_minus_t_pow(4)
    assert poly_mul((), (1, 2)) == ()


def test_poly_pow():
    assert poly_pow((1, -1), 0) == (1,)
    assert poly_pow((1, -1), 3) == (1, -3, 3, -1)
    with pytest.raises(ValueError):
        poly_pow((1, 1), -1)


def test_one_minus_t_pow_binomial_coefficients():
    assert one_minus_t_pow(0) == (1,)
    assert one_minus_t_pow(5) == (1, -5, 10, -10, 5, -1)
    with pytest.raises(ValueError):
        one_minus_t_pow(-1)


def test_one_minus_t_pow_matches_binomial_rows():
    # the row is built by a ratio walk; check it against math.comb
    for e in range(401):
        assert one_minus_t_pow(e) == tuple((-1) ** i * comb(e, i) for i in range(e + 1))


@given(st.integers(min_value=0, max_value=60))
def test_one_minus_t_pow_equals_repeated_product(e):
    assert one_minus_t_pow(e) == poly_pow((1, -1), e)


def test_rational_gf_normalization():
    gf = RationalGF((0, -1), (-1, 1))
    assert gf.den[0] == 1
    assert gf.num == (0, 1)
    with pytest.raises(ValueError):
        RationalGF((1,), ())
    with pytest.raises(ValueError):
        RationalGF((1,), (0, 1))


def _long_division(num, den, upto):
    # naive truncated power-series division over Fractions
    coeffs = []
    rem = list(num) + [0] * (upto + len(den) + 1)
    for n in range(upto + 1):
        c = Fraction(rem[n], den[0])
        coeffs.append(c)
        for i, d in enumerate(den):
            rem[n + i] -= c * d
    return coeffs


def test_gf_coeffs_geometric():
    geo = RationalGF((1,), (1, -1))
    assert gf_coeffs(geo, 4) == [1, 1, 1, 1, 1]


def test_gf_coeffs_requires_unit_constant_term():
    with pytest.raises(ValueError):
        gf_coeffs(RationalGF((1,), (2, 1)), 3)
    with pytest.raises(ValueError):
        gf_coeff(RationalGF((1,), (2, 1)), 3)


def test_gf_coeffs_matches_long_division():
    cases = [gf_S(), gf_S_k(1), gf_S_k(3), gf_C(0), gf_C(2), gf_R(1), gf_R(3), gf_dcc_width(2)]
    for gf in cases:
        exact = gf_coeffs(gf, 25)
        divided = _long_division(gf.num, gf.den, 25)
        assert [Fraction(c) for c in exact] == divided
        assert all(isinstance(c, int) for c in exact)
        assert [gf_coeff(gf, n) for n in range(26)] == exact


@given(
    lead=st.integers(min_value=0, max_value=20),
    num=st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=12),
    e=st.integers(min_value=1, max_value=60),
    n=st.integers(min_value=-3, max_value=80),
)
def test_gf_coeff_binomial_sum_matches_expansion(lead, num, e, n):
    # the single-coefficient sum over num/(1-t)^e against the whole prefix;
    # the numerator may start with zeros, and n may fall before its first
    # nonzero index or outside the series
    gf = RationalGF((0,) * lead + tuple(num), one_minus_t_pow(e))
    expected = gf_coeffs(gf, n)[n] if n >= 0 else 0
    assert gf_coeff(gf, n) == expected


def test_gf_coeff_before_the_first_nonzero_term():
    gf = RationalGF(monomial(10), one_minus_t_pow(5))
    assert [gf_coeff(gf, n) for n in range(12)] == [0] * 10 + [1, 5]
    assert gf_coeff(RationalGF((0, 0, 0), one_minus_t_pow(3)), 4) == 0
    assert gf_coeff(RationalGF((0, 0, 7), one_minus_t_pow(1)), 1) == 0


@given(
    num=st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=12),
    e=st.integers(min_value=0, max_value=40),
    upto=st.integers(min_value=0, max_value=60),
)
def test_gf_coeffs_prefix_sums_match_recurrence(num, e, upto):
    # num/(1-t)^e takes the prefix-sum path; multiplying numerator and
    # denominator by 1+t leaves the series unchanged but forces the
    # denominator recurrence
    power = RationalGF(tuple(num), one_minus_t_pow(e))
    forced = RationalGF(poly_mul(num, (1, 1)), poly_mul(one_minus_t_pow(e), (1, 1)))
    assert forced.den != one_minus_t_pow(len(forced.den) - 1)
    assert gf_coeffs(power, upto) == gf_coeffs(forced, upto)


def test_gf_coeffs_prefix_sums_cut_and_pad_numerator():
    # a numerator longer than the requested prefix is cut, a shorter one padded
    gf = RationalGF((1, 2, 3, 4, 5), one_minus_t_pow(1))
    assert gf_coeffs(gf, 2) == [1, 3, 6]
    assert gf_coeffs(gf, 6) == [1, 3, 6, 10, 15, 15, 15]
    assert gf_coeffs(RationalGF((), one_minus_t_pow(3)), 3) == [0, 0, 0, 0]
    assert gf_coeffs(RationalGF((2, 1), (1,)), 3) == [2, 1, 0, 0]


def test_gf_dcc_width():
    assert gf_coeffs(gf_dcc_width(1), 5) == [0, 1, 1, 1, 1, 1]
    assert gf_coeffs(gf_dcc_width(2), 3)[3] == 3
    assert gf_coeffs(gf_dcc_width(3), 4)[4] == 5
    with pytest.raises(ValueError):
        gf_dcc_width(0)


def test_gf_dcc_width_matches_closed_form():
    for k in range(1, 9):
        coeffs = gf_coeffs(gf_dcc_width(k), 40)
        for n in range(41):
            assert coeffs[n] == count_dcc(k, n)


def test_gf_S_k():
    assert gf_coeffs(gf_S_k(0), 6) == [0] * 7
    assert gf_coeffs(gf_S_k(1), 5) == [0, 0, 1, 2, 3, 4]
    assert gf_coeffs(gf_S_k(1), 5)[5] == 4
    assert gf_coeffs(gf_S_k(2), 5)[5] == 6
    with pytest.raises(ValueError):
        gf_S_k(-1)


def test_gf_S_k_matches_closed_form():
    for k in range(1, 9):
        coeffs = gf_coeffs(gf_S_k(k), 40)
        for n in range(41):
            assert coeffs[n] == s_closed(k, n)


def test_gf_S_denominator():
    gf = gf_S()
    assert gf.den == (1, -4, 5, -4, 1)
    assert gf.num == poly_mul(monomial(2), one_minus_t_pow(2))


def test_gf_S_coefficients():
    coeffs = gf_coeffs(gf_S(), 5)
    assert coeffs == [0, 0, 1, 2, 4, 10]


def test_gf_S_matches_width_sums():
    coeffs = gf_coeffs(gf_S(), 40)
    for n in range(41):
        assert coeffs[n] == sum(s_closed(k, n) for k in range(1, n // 2 + 1))


def test_gf_S_xt_coeff():
    assert gf_S_xt_coeff(1, 2) == 1
    assert gf_S_xt_coeff(2, 6) == 21  # = s_closed(2, 6) = C(7, 2)
    assert gf_S_xt_coeff(3, 7) == 10  # = s_closed(3, 7) = C(10, 1)
    with pytest.raises(ValueError):
        gf_S_xt_coeff(0, 4)


def test_gf_S_xt_matches_closed_form():
    for k in range(1, 7):
        for n in range(31):
            assert gf_S_xt_coeff(k, n) == s_closed(k, n)


def test_gf_C():
    assert gf_coeffs(gf_C(0), 5) == [0, 1, 1, 1, 1, 1]
    assert gf_coeff(gf_C(1), 3) == 4
    assert gf_coeff(gf_C(2), 5) == 31
    with pytest.raises(ValueError):
        gf_C(-1)


def test_gf_R():
    for m in range(2, 9):
        assert gf_coeff(gf_R(1), m) == m - 1
    assert gf_coeff(gf_R(2), 6) == 34
    assert gf_coeff(gf_R(3), 8) == 126
    with pytest.raises(ValueError):
        gf_R(0)


def test_gf_R_is_the_literal_square_of_gf_C():
    for k in range(1, 9):
        c = gf_C(k - 1)
        assert gf_R(k) == RationalGF(poly_mul(c.num, c.num), poly_mul(c.den, c.den))


def test_gf_R_is_cauchy_square_of_gf_C():
    for k in range(1, 8):
        upto = 2 * k + 16
        c = gf_coeffs(gf_C(k - 1), upto)
        r = gf_coeffs(gf_R(k), upto)
        for m in range(upto + 1):
            assert r[m] == sum(c[i] * c[m - i] for i in range(m + 1))


def test_poly_sub():
    assert poly_sub((1, 2), (1, 2)) == ()
    assert poly_sub(one_minus_t_pow(4), monomial(2)) == (1, -4, 5, -4, 1)


# every constructor of a (1-t)^e series, by width, as built by gfseries
POLE_CONSTRUCTORS = (gf_dcc_width, gf_S_k, gf_C, gf_R)


def test_pole_order_is_invisible():
    for k in range(1, 11):
        built = gf_S_k(k)
        by_hand = RationalGF([0] * (2 * k) + [1], list(one_minus_t_pow(4 * k - 2)))
        assert built.pole == 4 * k - 2 and by_hand.pole is None
        # the constructors of one pole order give equal denominators
        assert built.den == gf_S_k(k).den == gf_R(k).den
        assert gf_C(k).den == gf_dcc_width(k + 1).den
        assert built == by_hand
        assert hash(built) == hash(by_hand)
        assert repr(built) == repr(by_hand)
        # a constructor's series keeps its pole order, not its row
        assert "den" not in vars(built) and "den" in vars(by_hand)
    assert gf_S().pole is None
    with pytest.raises(TypeError):
        RationalGF((1,), (1, -1), pole=1)


def test_recorded_pole_order_gives_the_checked_coefficients():
    # a copy built by a caller has no recorded order, so gf_coeff and
    # gf_coeffs check its denominator exactly
    for make in POLE_CONSTRUCTORS:
        for k in range(1, 11):
            built = make(k)
            copy = RationalGF(built.num, built.den)
            assert built.pole == len(built.den) - 1 and copy.pole is None
            upto = 4 * k + 12
            assert gf_coeffs(built, upto) == gf_coeffs(copy, upto)
            assert [gf_coeff(built, n) for n in range(-1, upto + 1)] == [gf_coeff(copy, n) for n in range(-1, upto + 1)]
    for k in range(1, 11):
        term = RationalGF(poly_mul(monomial(2 * k), one_minus_t_pow(2)), one_minus_t_pow(4 * k))
        assert [gf_S_xt_coeff(k, n) for n in range(4 * k + 13)] == [gf_coeff(term, n) for n in range(4 * k + 13)]


def test_palindrome_square_matches_the_general_product():
    for k in range(81):
        d = antidiagonal(k)
        assert _palindrome_square(d) == poly_mul(d, d)


@given(st.lists(st.integers(-10**30, 10**30), min_size=1, max_size=30), st.booleans())
def test_palindrome_square_of_random_palindromes(half, odd):
    half[0] = half[0] or 1
    d = half + half[-2::-1] if odd else half + half[::-1]
    assert len(d) % 2 == odd
    assert _palindrome_square(d) == poly_mul(d, d)

