"""Formula-based counters: frozen values from the published tables, route
agreement, supports, and the published near-minimal-size polynomials."""
import sys
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polylat import combinatorics, counting, gfseries, oracle
from polylat.asymptotics import RatPoly
from polylat.combinatorics import binomial, delannoy_closed
from polylat.counting import (
    ROUTES,
    SIZE_UNIT,
    WIDTH_RECURRENCE,
    alpha_lemma,
    build_table,
    count_cc,
    count_dcc,
    r_conv,
    r_gf,
    s_closed,
    s_conv,
)
from polylat.gfseries import ZERO_GF, gf_C, gf_dcc_width, gf_R, gf_S_k, one_minus_t_pow, poly_add, poly_mul
from polylat.reference_tables import (
    CC_TABLE,
    COROLLARY_OFFSETS,
    FITTED_FAMILIES,
    LEADING_BASE,
    PLATEAU_ROWS,
    PUBLISHED_OFFSETS,
    PUBLISHED_POLYNOMIALS,
    plateau_row_size,
    published_min_k,
    published_polynomial,
)

# the one known digit garble in the published plateau table's first 15 rows
PLATEAU_PRINT_TYPO = {(4, 13): (57922, 57928)}  # (k, m): (printed, correct)


def test_count_dcc():
    for k in range(1, 7):
        assert count_dcc(k, k) == 1
    assert count_dcc(2, 3) == 3
    assert count_dcc(3, 5) == 15
    assert count_dcc(3, 2) == 0
    with pytest.raises(ValueError):
        count_dcc(0, 4)


def test_s_conv():
    assert s_conv(1, 2) == 1
    assert s_conv(2, 5) == 6
    assert s_conv(2, 6) == 21
    assert s_conv(2, 3) == 0  # empty sum below the support


def test_s_closed():
    for k in range(1, 8):
        assert s_closed(k, 2 * k) == 1
    for n in range(2, 12):
        assert s_closed(1, n) == n - 1
    assert s_closed(3, 8) == 55
    assert s_closed(2, 3) == 0
    with pytest.raises(ValueError):
        s_closed(0, 4)


def test_s_conv_equals_s_closed():
    for k in range(1, 9):
        for n in range(2 * k, 2 * k + 31):
            assert s_conv(k, n) == s_closed(k, n)


def test_alpha_lemma_printed_formula():
    # evaluated verbatim; the values below document that the printed formula
    # contradicts the published table (4 and 9 at these cells)
    assert alpha_lemma(1, 1) == 1
    assert alpha_lemma(2, 3) == 2
    assert alpha_lemma(2, 4) == 1
    assert count_cc(2, 3) == 4
    assert count_cc(2, 4) == 9


def test_alpha_lemma_matches_the_sum_stopped_at_vanishing_binomials():
    # the printed sum runs over i, j >= 0; stopping each index at its first
    # vanishing binomial factor drops only zero terms
    def stopped(k, u):
        total, i = 0, 0
        while binomial(k - i - 1, i):
            j = 0
            while binomial(2 * k - j - 2, j):
                total += binomial(k - i - 1, i) * binomial(2 * k - j - 2, j) * binomial(k - 2 * i - 1, u - k - i - j)
                j += 1
            i += 1
        return total

    for k in range(1, 16):
        for u in range(-3, 60):
            assert alpha_lemma(k, u) == stopped(k, u), (k, u)


def test_count_cc():
    assert count_cc(2, 3) == 4
    assert count_cc(4, 6) == 68
    for k in range(1, 11):
        assert count_cc(k, k) == 1
    assert count_cc(3, 2) == 0
    with pytest.raises(ValueError):
        count_cc(0, 1)


def test_count_cc_matches_published_table():
    for n in range(1, 11):
        for k in range(1, 11):
            assert count_cc(k, n) == CC_TABLE[n - 1][k - 1]


def test_r_conv():
    assert r_conv(2, 5) == 8
    assert r_conv(3, 9) == 666
    assert r_conv(4, 11) == 2152
    assert r_conv(3, 5) == 0


def test_r_gf():
    assert r_gf(1, 7) == 6
    assert r_gf(2, 7) == 104
    assert r_gf(5, 12) == 498
    with pytest.raises(ValueError):
        r_gf(0, 3)


def test_r_conv_equals_r_gf():
    for k in range(1, 8):
        for m in range(2 * k, 2 * k + 17):
            assert r_conv(k, m) == r_gf(k, m)


def _r_conv_by_terms(k, m):
    return sum(count_cc(k, i) * count_cc(k, m - i) for i in range(k, m - k + 1))


def _s_conv_by_terms(k, n):
    return sum(count_dcc(k, i) * count_dcc(k, n - i) for i in range(k, n - k + 1))


def test_convolutions_match_their_per_term_sums():
    # both convolutions read one column and sum it against its reverse;
    # sizes below the support (negative ones included) give empty sums
    for k in range(1, 9):
        for size in range(-2, 2 * k + 21):
            assert r_conv(k, size) == _r_conv_by_terms(k, size), (k, size)
            assert s_conv(k, size) == _s_conv_by_terms(k, size), (k, size)


def test_dcc_is_subfamily_of_cc():
    for k in range(1, 7):
        for n in range(1, 15):
            assert count_dcc(k, n) <= count_cc(k, n)


def test_supports():
    for k in range(1, 7):
        for n in range(0, 16):
            assert (count_cc(k, n) == 0) == (n < k)
    for k in range(1, 6):
        for m in range(0, 16):
            assert (r_gf(k, m) == 0) == (m < 2 * k)


@pytest.mark.parametrize("offset", range(7))
def test_published_polynomials_match_tables(offset):
    # the plateau polynomial at offset i gives the count at lateral area 2k+i
    h_poly = RatPoly(published_polynomial("cc", offset))
    r_poly = RatPoly(published_polynomial("plateau", offset))
    for k in range(offset + 1, 31 if offset <= 2 else 21):
        assert h_poly(k) == count_cc(k, k + offset)
        assert r_poly(k) == r_gf(k, 2 * k + offset)


def test_published_polynomial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        published_polynomial("dcc", 3)
    with pytest.raises(ValueError):
        published_polynomial("plateau", 7)


def test_published_facts_are_stated_for_every_fitted_family():
    assert set(FITTED_FAMILIES) == set(LEADING_BASE) <= set(ROUTES)
    assert set(COROLLARY_OFFSETS) <= set(PUBLISHED_OFFSETS)
    for family in FITTED_FAMILIES:
        assert set(PUBLISHED_POLYNOMIALS[family]) == set(PUBLISHED_OFFSETS)
        # the valid-from rule holds past the published offsets too
        assert [published_min_k(family, offset) for offset in (0, 6, 7, 20)] == [1, 7, 8, 21]
        with pytest.raises(ValueError):
            published_min_k(family, -1)
    with pytest.raises(ValueError):
        published_min_k("dcc", 1)


def test_build_table_cc_is_published_table():
    table = build_table("cc", 10, 10)
    for n in range(1, 11):
        assert table.row(n) == list(CC_TABLE[n - 1])


def test_build_table_plateau_vs_published_rows():
    table = build_table("plateau", 7, 15)
    for _, values in PLATEAU_ROWS:
        m = plateau_row_size(values)
        if m > 15:
            continue
        for k in range(1, 8):
            if (k, m) in PLATEAU_PRINT_TYPO:
                printed, correct = PLATEAU_PRINT_TYPO[(k, m)]
                assert values[k - 1] == printed
                assert table.value(k, m) == correct
            else:
                assert table.value(k, m) == values[k - 1]


def test_build_table_dplateau():
    table = build_table("dplateau", 1, 5)
    assert [table.value(1, m) for m in range(2, 6)] == [1, 2, 3, 4]
    assert table.size_min == 2


def test_build_table_minimal_entries():
    for family, size_of in (("dcc", lambda k: k), ("cc", lambda k: k),
                            ("dplateau", lambda k: 2 * k), ("plateau", lambda k: 2 * k)):
        table = build_table(family, 5, 10)
        for k in range(1, 6):
            assert table.value(k, size_of(k)) == 1
            assert table.value(k, size_of(k) - 1) == 0


def test_build_table_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_table("nope", 3, 3)
    with pytest.raises(ValueError):
        build_table("cc", 0, 3)


def _cc_binomial_sum(k, n):
    # [t^n] t^k N(t) / (1-t)^(2k-1) with N_i = D(k-1-i, i), term by term
    return sum(delannoy_closed(k - 1 - i, i) * binomial(n - k - i + 2 * k - 2, 2 * k - 2) for i in range(k))


def _clear_series_cache():
    for cache in counting._SERIES_CACHE:
        cache.clear()


def _kept_series():
    """(factory, index) of every series in the cache: count_cc keeps gf_C(k-1)
    and r_gf keeps gf_R(k) under the width k."""
    cc, r = counting._SERIES_CACHE
    return {(gf_C, k - 1) for k in cc} | {(gf_R, k) for k in r}


@contextmanager
def _fresh_series_cache():
    """An empty series cache inside the block; the entries come back after it."""
    saved = [dict(cache) for cache in counting._SERIES_CACHE]
    _clear_series_cache()
    try:
        yield
    finally:
        for cache, entries in zip(counting._SERIES_CACHE, saved):
            cache.clear()
            cache.update(entries)


def _empty_series_cache(monkeypatch):
    """Empty every dict of the series cache; the entries come back after the test."""
    for cache in counting._SERIES_CACHE:
        for k in list(cache):
            monkeypatch.delitem(cache, k)


def _counting_expansions(monkeypatch):
    """Start from an empty series cache and count the series expansions."""
    _empty_series_cache(monkeypatch)
    calls = []
    expand = counting.gf_coeffs

    def counted(gf, upto):
        calls.append(upto)
        return expand(gf, upto)

    monkeypatch.setattr(counting, "gf_coeffs", counted)
    return calls


# the routes that read the per-width series cache
CACHED_ROUTES = {"count_cc": count_cc, "r_conv": r_conv, "r_gf": r_gf}


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(sorted(CACHED_ROUTES)), st.integers(1, 4), st.integers(0, 80)), max_size=12))
@example([("r_conv", 2, 40), ("count_cc", 2, 70), ("count_cc", 2, 71), ("r_gf", 2, 70)])
def test_cached_routes_in_any_order_keep_one_ask_per_query(queries):
    # count_cc and r_conv share each width's cache entry; sizes up to 80
    # cross the cache's growth steps 32 and 66. Each query past a width's
    # prefix is one ask, an r_conv call included: a single count expands
    # exactly when its width has had two earlier asks, and an r_conv miss
    # expands once, to read its column. Every value is the fresh cache's
    fresh = []
    for name, k, size in queries:
        with _fresh_series_cache():
            fresh.append(CACHED_ROUTES[name](k, size))
    expansions = []
    expand = counting.gf_coeffs
    asks = {}
    with _fresh_series_cache(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(counting, "gf_coeffs", lambda gf, upto: expansions.append(upto) or expand(gf, upto))
        for (name, k, size), value in zip(queries, fresh):
            cache = counting._R_SERIES if name == "r_gf" else counting._CC_SERIES
            least = k if name == "count_cc" else 2 * k
            asked = size - k if name == "r_conv" else size
            miss = size >= least and asked >= len(cache[k][0] if k in cache else ())
            earlier = asks.get((id(cache), k), 0)
            before = len(expansions)
            assert CACHED_ROUTES[name](k, size) == value
            assert len(expansions) - before == (miss and (name == "r_conv" or earlier >= 2))
            asks[id(cache), k] = earlier + miss


def _counting_series_calls(monkeypatch, names=("gf_C", "gf_R", "gf_coeff", "gf_coeffs")):
    """Start from an empty series cache and record the series code called."""
    _empty_series_cache(monkeypatch)
    calls = []
    for name in names:
        fn = getattr(counting, name)
        monkeypatch.setattr(counting, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    return calls


def test_cache_hits_call_no_series_code(monkeypatch):
    # the median point query is a cache hit: a list index, with no series
    # built, no single coefficient summed and no prefix expanded; a width's
    # first two asks are single sums, and its third expands
    calls = _counting_series_calls(monkeypatch)
    count_cc(5, 30)
    count_cc(5, 20)
    count_cc(5, 25)
    r_gf(4, 40)
    r_gf(4, 30)
    r_gf(4, 35)
    assert calls == ["gf_C", "gf_coeff", "gf_coeff", "gf_coeffs", "gf_R", "gf_coeff", "gf_coeff", "gf_coeffs"]
    calls.clear()
    cc = [count_cc(5, n) for n in range(33)]
    r = [r_gf(4, m) for m in range(41)]
    assert calls == []
    assert cc == [_cc_binomial_sum(5, n) for n in range(33)]
    assert r == [_r_conv_by_terms(4, m) for m in range(41)]


@settings(deadline=None)
@given(family=st.sampled_from(sorted(ROUTES)), k=st.integers(1, 3), extra=st.integers(-2, 5))
def test_every_route_agrees_at_random_cells(family, k, extra):
    # extra counts from the family's minimal size; below it every route gives 0
    size = SIZE_UNIT[family] * k + extra
    first, *others = ROUTES[family].values()
    expected = first(k, size)
    for route in others:
        assert route(k, size) == expected


def test_cells_outside_the_support_expand_nothing(monkeypatch):
    calls = _counting_expansions(monkeypatch)
    assert count_cc(50, 10) == 0
    assert r_gf(40, 70) == 0
    assert r_conv(40, 70) == 0
    assert calls == []
    assert _kept_series() == set()


def test_build_table_cc_matches_binomial_sums_and_count_cc_grown_step_by_step(monkeypatch):
    # 140 is past the cache's growth steps 32 -> 66 -> 134
    calls = _counting_expansions(monkeypatch)
    table = build_table("cc", 24, 140)
    for k in range(1, 25):
        assert [table.value(k, n) for n in range(1, 141)] == [_cc_binomial_sum(k, n) for n in range(1, 141)]
    # cells asked for in increasing size order grow the cache step by step
    # and reach the same values
    for k in (1, 12, 24):
        assert [count_cc(k, n) for n in range(1, 141)] == [table.value(k, n) for n in range(1, 141)]
    assert calls == [32, 66, 134, 270] * 3


def test_build_table_plateau_matches_r_conv(monkeypatch):
    _empty_series_cache(monkeypatch)
    table = build_table("plateau", 12, 140)
    for k in range(1, 13):
        assert [table.value(k, m) for m in range(2, 141)] == [r_conv(k, m) for m in range(2, 141)]


def test_build_table_calls_no_route_and_no_series(monkeypatch):
    # every width comes from the recurrence and its numerator: with each
    # route, the series constructors and the Delannoy rows refused, the
    # tables still come out whole, and nothing enters a cache
    expected = {family: build_table(family, 40, 300).columns for family in ROUTES}
    _empty_series_cache(monkeypatch)
    memo = len(combinatorics._DELANNOY_MEMO)

    def refuse(*args):
        raise AssertionError(f"build_table called a route or a series with {args}")

    counters = [route for routes in ROUTES.values() for route in routes.values()]
    for routes in ROUTES.values():
        for name in routes:
            monkeypatch.setitem(routes, name, refuse)
    for module in (counting, gfseries, combinatorics, oracle):
        for name, value in list(vars(module).items()):
            if name in ("gf_C", "gf_R", "antidiagonal") or any(value is route for route in counters):
                monkeypatch.setattr(module, name, refuse)
    assert {family: build_table(family, 40, 300).columns for family in ROUTES} == expected
    assert _kept_series() == set()
    assert len(combinatorics._DELANNOY_MEMO) == memo


# each family's width-w series, for the width recurrence checks
WIDTH_SERIES = {"dcc": gf_dcc_width, "cc": lambda w: gf_C(w - 1), "dplateau": gf_S_k, "plateau": gf_R}


def _over_power_of_one_minus_t(gf):
    e = len(gf.den) - 1
    assert gf.den == one_minus_t_pow(e)
    return gf.num, e


@pytest.mark.parametrize("family", sorted(WIDTH_RECURRENCE))
def test_width_recurrence_is_a_polynomial_identity(family):
    # series(w) = num_w/(1-t)^E + sum_j mult_j/(1-t)^e_j * series(w-1-j), with
    # every series below width 1 zero, checked on whole numerators over one
    # common power of 1-t, not on a prefix of terms
    recurrence, numerators = WIDTH_RECURRENCE[family]
    assert [e for _, e in recurrence] == sorted(e for _, e in recurrence)
    largest = recurrence[-1][1]

    def series(w):
        return _over_power_of_one_minus_t(WIDTH_SERIES[family](w) if w >= 1 else ZERO_GF)

    for w in range(1, 31):
        num, e = series(w)
        terms = [(numerators[w - 1] if w <= len(numerators) else (), largest)]
        for j, (mult, mult_e) in enumerate(recurrence):
            term_num, term_e = series(w - 1 - j)
            terms.append((poly_mul(mult, term_num), mult_e + term_e))
        common = max([e] + [te for _, te in terms])
        total = ()
        for term_num, term_e in terms:
            total = poly_add(total, poly_mul(term_num, one_minus_t_pow(common - term_e)))
        assert poly_mul(num, one_minus_t_pow(common - e)) == total


@pytest.mark.parametrize("family", sorted(ROUTES))
@pytest.mark.parametrize("k_max, size_max", [(40, 300), (1, 50), (2, 50), (12, 1), (12, 3), (12, 9), (3, 2)])
def test_build_table_matches_the_first_route_cell_by_cell(family, k_max, size_max):
    # the small shapes have fewer widths than the recurrence's seeds, or
    # fewer sizes than its longest multiplier
    first = next(iter(ROUTES[family].values()))
    table = build_table(family, k_max, size_max)
    for k in range(1, k_max + 1):
        assert [table.value(k, n) for n in range(size_max + 1)] == [first(k, n) for n in range(size_max + 1)]


def test_table_value_is_zero_outside_the_rectangle():
    for family in ROUTES:
        table = build_table(family, 4, 20)
        assert table.value(4, 20) > 0
        assert table.value(0, 10) == table.value(5, 20) == 0
        assert table.value(2, -1) == table.value(4, 21) == 0
        assert table.row(21) == table.row(-1) == [0] * 4


def test_first_two_queries_expand_nothing_and_the_third_covers_all(monkeypatch):
    calls = _counting_expansions(monkeypatch)
    assert count_cc(30, 300) == _cc_binomial_sum(30, 300)
    by_sum = r_gf(12, 200)
    assert count_cc(30, 120) == _cc_binomial_sum(30, 120)
    assert calls == []
    # a width's third query expands it once, up to the largest of its three
    # sizes; later queries inside that prefix expand nothing
    assert count_cc(30, 250) == _cc_binomial_sum(30, 250)
    assert calls == [300]
    assert count_cc(30, 300) == _cc_binomial_sum(30, 300)
    assert count_cc(30, 31) == _cc_binomial_sum(30, 31)
    assert calls == [300]
    assert r_gf(12, 200) == by_sum
    assert calls == [300]
    assert r_gf(12, 24) == 1
    assert calls == [300, 200]
    assert r_gf(12, 200) == by_sum
    assert calls == [300, 200]


def test_two_asks_per_width_keep_no_prefix(monkeypatch):
    # a width asked twice pays two single sums: no expansion, and nothing
    # kept but its series
    calls = _counting_expansions(monkeypatch)
    by_sum = {}
    for k in (40, 200, 400):
        assert count_cc(k, 3000) == _cc_binomial_sum(k, 3000)
        assert count_cc(k, 3001) == _cc_binomial_sum(k, 3001)
        assert r_gf(k, 3000) > 0
        by_sum[k] = r_gf(k, 3001)
    assert calls == []
    assert len(_kept_series()) == 6
    assert all(entry[0] == [] for cache in counting._SERIES_CACHE for entry in cache.values())
    # the convolution reads the whole column, so it expands at once, through
    # the largest size asked of the width
    assert r_conv(40, 3001) == by_sum[40]
    assert calls == [3001]


def _warm(route, k, sizes=(40, 39, 38)):
    """Ask a width three times, so that its third ask expands its prefix."""
    for size in sizes:
        route(k, size)
    return (counting._CC_SERIES if route is count_cc else counting._R_SERIES)[k][0]


def test_hits_at_a_cached_width_cover_the_prefix_edges(monkeypatch):
    _empty_series_cache(monkeypatch)
    for route, k, least, by_terms in ((count_cc, 5, 5, _cc_binomial_sum), (r_gf, 4, 8, _r_conv_by_terms)):
        prefix = _warm(route, k)
        last = len(prefix) - 1
        assert last >= 40 and prefix[last] > 0
        # the last index is a hit, the one past it a miss that grows the prefix
        assert route(k, last) == by_terms(k, last)
        assert route(k, last + 1) == by_terms(k, last + 1)
        # a negative size is no index into the prefix, and below the support
        # the prefix's zeros are the answer
        assert [route(k, size) for size in (-1, -2, -last, -last - 1)] == [0] * 4
        assert [route(k, size) for size in range(least)] == [0] * least
        assert route(k, least) == 1
        for width in (0, -1):
            with pytest.raises(ValueError, match="width must be >= 1"):
                route(width, 10)
    for route, below in ((count_dcc, 2), (s_closed, 5)):
        assert route(3, -5) == route(3, 0) == route(3, below) == 0 < route(3, below + 1)
        with pytest.raises(ValueError, match="width must be >= 1"):
            route(0, 10)


def test_a_hit_calls_nothing_else_in_polylat(monkeypatch):
    # a hit is answered in the route's own body: its frame is the only
    # Python-level call that a polylat module sees
    _empty_series_cache(monkeypatch)
    expected = [_warm(count_cc, 5)[20], _warm(r_gf, 4)[30]]
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("polylat"):
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        values = [count_cc(5, 20), r_gf(4, 30)]
    finally:
        sys.setprofile(previous)
    assert calls == ["count_cc", "r_gf"]
    assert values == expected


def _fresh_cache_value(route, k, size):
    with _fresh_series_cache():
        return route(k, size)


def test_the_cache_bound_is_reached_and_held(monkeypatch):
    # widths 1-10 of both routes asked three times each keep 35,775 bits
    # without a bound, 3 times this one; the largest entry keeps 2,751
    bound = 12_000
    monkeypatch.setattr(counting, "SERIES_CACHE_BITS", bound)
    _empty_series_cache(monkeypatch)
    created, evicted = [], False
    for k in range(1, 11):
        for route, cache in ((count_cc, counting._CC_SERIES), (r_gf, counting._R_SERIES)):
            created.append((route, k))
            for size in (60, 61, 62):
                assert route(k, size) == _fresh_cache_value(route, k, size)
                entries = [(entry, (r, w)) for r, c in ((count_cc, counting._CC_SERIES), (r_gf, counting._R_SERIES))
                           for w, entry in c.items()]
                assert all(e[4] == sum(x.bit_length() for x in (*e[1].num, *e[0])) for e, _ in entries)
                assert sum(e[4] for e, _ in entries) <= bound
                # the width being served stays, and eviction takes the oldest
                # widths first, so what is kept is the newest of those created
                kept = {key for _, key in entries}
                assert (route, k) in kept
                assert kept == set(created[len(created) - len(kept):])
                evicted = evicted or len(kept) < len(created)
    assert evicted
    # a growing width keeps its age, so the oldest kept one, grown past its
    # prefix, is the oldest width in the cache yet is not evicted
    route, k = next(key for key in created if key in kept)
    assert route(k, 70) == _fresh_cache_value(route, k, 70)
    cache = counting._CC_SERIES if route is count_cc else counting._R_SERIES
    assert len(cache[k][0]) > 70
    assert sum(e[4] for c in counting._SERIES_CACHE for e in c.values()) <= bound


def test_r_conv_expands_a_cold_width_on_its_first_call(monkeypatch):
    # the convolution reads the whole column: its count_cc is the width's
    # first ask, a single sum, and the column read expands the series
    # without counting an ask, so the next miss is the second ask, a single
    # sum, and only the third grows the prefix
    calls = _counting_series_calls(monkeypatch, ("gf_coeff", "gf_coeffs"))
    by_column = r_conv(12, 200)
    assert calls == ["gf_coeff", "gf_coeffs"]
    # each count_cc below is a hit on the expanded prefix
    assert by_column == _r_conv_by_terms(12, 200)
    assert r_conv(12, 100) == _r_conv_by_terms(12, 100)
    assert calls == ["gf_coeff", "gf_coeffs"]
    assert count_cc(12, 300) == _cc_binomial_sum(12, 300)
    assert calls == ["gf_coeff", "gf_coeffs", "gf_coeff"]
    assert count_cc(12, 301) == _cc_binomial_sum(12, 301)
    assert calls == ["gf_coeff", "gf_coeffs", "gf_coeff", "gf_coeffs"]
    # the third ask grows the prefix through twice its length of 189 terms
    assert len(counting._CC_SERIES[12][0]) == 2 * 189 + 1


def test_large_cold_cells_expand_nothing(monkeypatch):
    calls = _counting_expansions(monkeypatch)
    assert count_cc(400, 10000) == _cc_binomial_sum(400, 10000)
    assert r_gf(400, 10000) > 0
    assert calls == []


def test_first_queries_match_the_other_route_at_large_cells(monkeypatch):
    for k, m in ((40, 400), (100, 1200)):
        calls = _counting_expansions(monkeypatch)
        first = r_gf(k, m)
        assert calls == []
        assert first == r_conv(k, m)
    for k, n in ((48, 400), (100, 1200), (13, 100)):
        calls = _counting_expansions(monkeypatch)
        assert count_cc(k, n) == _cc_binomial_sum(k, n)
        assert calls == []
